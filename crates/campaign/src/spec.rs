//! Campaign specifications: the grid of simulations to run.
//!
//! A spec names workloads, node counts, checkpoint frequencies and
//! fault-injection scenarios; [`CampaignSpec::expand`] multiplies them into
//! a flat, deterministically ordered list of [`Cell`]s. Cell ids are stable:
//! the same spec always expands to the same ids, labels and derived seeds,
//! which is what makes single-cell replay (`ftcoma campaign --cell`) and
//! parallel execution reproducible.

use ftcoma_core::{FtConfig, ECP_MIN_LIVE_NODES};
use ftcoma_machine::MachineConfig;
use ftcoma_mem::NodeId;
use ftcoma_sim::{derive_seed, Clock, Json};
use ftcoma_workloads::{presets, SplashConfig};

/// A malformed or inconsistent campaign spec, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Run-length policy for the cells of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lengths {
    /// Every cell runs `refs` references per node after `warmup`.
    Fixed {
        /// Measured references per node.
        refs: u64,
        /// Warmup references per node (excluded from metrics).
        warmup: u64,
    },
    /// Run lengths derived from the checkpoint frequency via
    /// [`lengths_for`], so several recovery points land inside the
    /// measured window — the paper's methodology ("all the simulations are
    /// sufficiently long so that several recovery point establishments
    /// occur"). Each frequency gets its own baseline group.
    PerFrequency,
}

/// Run lengths `(refs_per_node, warmup_refs_per_node)` for a checkpoint
/// frequency: low frequencies need long runs so several recovery points
/// land inside the measured window.
///
/// # Panics
///
/// Panics if the frequency is not positive and finite, or so low that the
/// lengths overflow; [`CampaignSpec::validate`] rejects both.
pub fn lengths_for(freq_hz: f64) -> (u64, u64) {
    checked_lengths_for(freq_hz).expect("run lengths overflow at this frequency")
}

fn checked_lengths_for(freq_hz: f64) -> Option<(u64, u64)> {
    let period = Clock::ksr1().period_for_rate_hz(freq_hz);
    // At ~5 cycles/reference, `period * 4 / 5` references cover several
    // checkpoint intervals; the warmup covers at least one full interval so
    // measurement starts from a steady recovery-data population.
    let refs = (period.checked_mul(4)? / 5).max(60_000);
    let warmup = (period.checked_mul(2)? / 5).max(30_000);
    Some((refs, warmup))
}

/// What kind of failure a scenario injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Fault-free run.
    None,
    /// One transient failure: the node rolls back and rejoins.
    Transient,
    /// One permanent failure (optionally followed by a repair).
    Permanent,
    /// A failure cycle: `count` transient failures, one every `period`
    /// cycles starting at the scenario's `at`. The period must comfortably
    /// exceed the recovery time.
    Cycle {
        /// Cycles between consecutive failures.
        period: u64,
        /// Number of failures injected.
        count: u32,
    },
    /// Back-to-back faults probing restartable recovery: a *permanent*
    /// failure of `node` at `at`, then a transient failure of
    /// `second_node` only `gap` cycles later — tight gaps land inside the
    /// first fault's recovery window, forcing the machine to abandon the
    /// in-flight recovery and restart it with both victims folded in.
    /// The run is expected to recover unless the copy-accounting audit
    /// certifies a committed item with zero live copies.
    BackToBack {
        /// Cycles between the first (permanent) and second (transient)
        /// failure.
        gap: u64,
        /// Victim of the second failure (must differ from `node` and be
        /// alive, i.e. not the permanently failed node).
        second_node: u16,
    },
    /// Nested-fault chain stressing recovery restarts: a failure of `node`
    /// at `at`, a second failure of `second_node` `gap` cycles later, and
    /// (when `gap2` > 0) a third failure of `third_node` another `gap2`
    /// cycles after that. Tight gaps land the later faults inside open
    /// recovery windows. Bit *i* of `permanent_mask` makes fault *i*
    /// permanent; at most one bit may be set so scripted kills cannot
    /// partition the mesh.
    Nested {
        /// Cycles between the first and second failure.
        gap: u64,
        /// Victim of the second failure.
        second_node: u16,
        /// Cycles between the second and third failure (0 = no third
        /// fault).
        gap2: u64,
        /// Victim of the third failure (ignored when `gap2` is 0).
        third_node: u16,
        /// Bit *i* (0 = first fault) marks fault *i* as permanent. At most
        /// one bit may be set.
        permanent_mask: u8,
    },
    /// Interconnect fault: the mesh link between `node` and `to_node`
    /// (which must be mesh-adjacent) is cut at `at`. Traffic detours; if
    /// the cut severs the mesh the reliable transport escalates.
    LinkCut {
        /// The other endpoint of the cut link.
        to_node: u16,
    },
    /// Interconnect fault: `node`'s mesh router dies at `at`. The node
    /// becomes unreachable and its peers' transports escalate the loss
    /// into a permanent node failure.
    RouterDown,
    /// Interconnect fault: a bounded message-loss episode starting at `at`
    /// drops `rate` per-mille of all packets; the reliable transport masks
    /// the losses with retransmissions.
    MessageLoss {
        /// Drop rate in per-mille (`1..=999`).
        rate: u32,
    },
    /// Continuous MTBF/MTTR failure–repair process: instead of a scripted
    /// fault list, the machine installs a seeded
    /// [`ftcoma_machine::FaultProcess`] that keeps sampling node failures,
    /// node repairs, link cuts and link repairs for the whole run. The
    /// scenario's `at` is the process start offset (0 = sample from the
    /// beginning); `node` and `repair_at` are unused. A mean of 0 disables
    /// that sub-process; at least one MTBF must be set, and every set MTBF
    /// needs its MTTR.
    Continuous {
        /// Mean cycles between node failures (0 = no node process).
        node_mtbf: u64,
        /// Mean cycles from node failure to repair request.
        node_mttr: u64,
        /// Mean cycles between link cuts (0 = no link process).
        link_mtbf: u64,
        /// Mean cycles from link cut to link restoration.
        link_mttr: u64,
    },
}

/// One fault-injection scenario applied to an ECP cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// What to inject.
    pub kind: ScenarioKind,
    /// Victim node index.
    pub node: u16,
    /// Cycle of the (first) failure.
    pub at: u64,
    /// Repair time for permanent failures.
    pub repair_at: Option<u64>,
}

impl Scenario {
    /// The fault-free scenario.
    pub fn none() -> Self {
        Scenario {
            kind: ScenarioKind::None,
            node: 0,
            at: 0,
            repair_at: None,
        }
    }

    /// Short label used in cell labels (`ok`, `t@20000`, ...).
    pub fn label(&self) -> String {
        match self.kind {
            ScenarioKind::None => "ok".into(),
            ScenarioKind::Transient => format!("t{}@{}", self.node, self.at),
            ScenarioKind::Permanent => match self.repair_at {
                Some(r) => format!("p{}@{}+r@{}", self.node, self.at, r),
                None => format!("p{}@{}", self.node, self.at),
            },
            ScenarioKind::Cycle { period, count } => {
                format!("c{}@{}x{}/{}", self.node, self.at, count, period)
            }
            ScenarioKind::BackToBack { gap, second_node } => {
                format!("b{}@{}+{}t{}", self.node, self.at, gap, second_node)
            }
            ScenarioKind::Nested {
                gap,
                second_node,
                gap2,
                third_node,
                permanent_mask,
            } => {
                let mut s = format!("nf{}@{}+{}f{}", self.node, self.at, gap, second_node);
                if gap2 > 0 {
                    s.push_str(&format!("+{gap2}f{third_node}"));
                }
                s.push_str(&format!("m{permanent_mask}"));
                s
            }
            ScenarioKind::LinkCut { to_node } => {
                format!("lc{}-{}@{}", self.node, to_node, self.at)
            }
            ScenarioKind::RouterDown => format!("rd{}@{}", self.node, self.at),
            ScenarioKind::MessageLoss { rate } => format!("ml{rate}@{}", self.at),
            ScenarioKind::Continuous {
                node_mtbf,
                node_mttr,
                link_mtbf,
                link_mttr,
            } => {
                let mut s = format!("cont@{}", self.at);
                if node_mtbf > 0 {
                    s.push_str(&format!("+n{node_mtbf}/{node_mttr}"));
                }
                if link_mtbf > 0 {
                    s.push_str(&format!("+l{link_mtbf}/{link_mttr}"));
                }
                s
            }
        }
    }

    /// The one scenario check: the scenario's values are consistent and it
    /// fits an `n`-node machine.
    ///
    /// The value rules hold on any machine: scripted faults need a positive
    /// `at`; `repair_at` belongs to permanent faults and comes after `at`;
    /// a continuous process needs at least one MTBF and every MTBF its
    /// MTTR; plus the back-to-back, nested, link-cut and message-loss
    /// rules. Fitting means every node the scenario targets exists, a
    /// cut link joins mesh-adjacent nodes, and a scenario that loses a
    /// node for good (a permanent failure, alone, back to back or nested,
    /// or a dead router) runs on at least 5 nodes: establishing a recovery
    /// point takes four live ones. Campaign specs check each
    /// scenario against each node count, a chaos replay its artifact's
    /// scenario against the artifact's machine, and `ftcoma run` and
    /// `ftcoma failure` theirs against the command line's.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the first rule the scenario breaks.
    pub fn validate_for(&self, n: u16) -> Result<(), SpecError> {
        self.check_values()?;
        if self.kind != ScenarioKind::None && self.node >= n {
            return Err(err(format!(
                "scenario targets node {} but the machine has only {n} nodes",
                self.node
            )));
        }
        let loses_a_node = match self.kind {
            ScenarioKind::Permanent
            | ScenarioKind::BackToBack { .. }
            | ScenarioKind::RouterDown => true,
            ScenarioKind::Nested { permanent_mask, .. } => permanent_mask != 0,
            _ => false,
        };
        match self.kind {
            ScenarioKind::BackToBack { second_node, .. } if second_node >= n => Err(err(format!(
                "scenario targets second node {second_node} but the machine has only {n} nodes"
            ))),
            ScenarioKind::Nested {
                second_node,
                gap2,
                third_node,
                ..
            } if second_node >= n || (gap2 > 0 && third_node >= n) => Err(err(format!(
                "nested scenario targets a node outside the {n}-node machine"
            ))),
            ScenarioKind::LinkCut { to_node } if to_node >= n => Err(err(format!(
                "scenario cuts a link to node {to_node} but the machine has only {n} nodes"
            ))),
            ScenarioKind::LinkCut { to_node } => {
                let geo = ftcoma_net::MeshGeometry::for_nodes(usize::from(n));
                let to = NodeId::new(to_node);
                if !geo.neighbours(NodeId::new(self.node)).any(|m| m == to) {
                    return Err(err(format!(
                        "link_cut nodes {} and {to_node} are not mesh-adjacent on {n} nodes \
                         ({}x{})",
                        self.node,
                        geo.cols(),
                        geo.rows()
                    )));
                }
                Ok(())
            }
            _ if loses_a_node && n <= ECP_MIN_LIVE_NODES => Err(err(format!(
                "scenario `{}` loses a node for good, which needs at least 5 nodes: \
                 establishing a recovery point takes four live nodes and only {} would remain",
                self.label(),
                n - 1
            ))),
            _ => Ok(()),
        }
    }

    /// The value rules of [`Scenario::validate_for`], which need no
    /// machine; [`Scenario::from_json`] applies them on their own.
    fn check_values(&self) -> Result<(), SpecError> {
        let (node, at) = (self.node, self.at);
        if self.repair_at.is_some() && self.kind != ScenarioKind::Permanent {
            return Err(err("`repair_at` only applies to permanent failures"));
        }
        if let Some(r) = self.repair_at {
            if r <= at {
                return Err(err(format!(
                    "`repair_at` ({r}) must come strictly after the failure at {at}"
                )));
            }
        }
        match self.kind {
            ScenarioKind::BackToBack { gap, second_node } => {
                if gap == 0 {
                    return Err(err("back_to_back `gap` must be positive"));
                }
                if second_node == node {
                    return Err(err(
                        "back_to_back `second_node` must differ from the (dead) first victim",
                    ));
                }
            }
            ScenarioKind::Nested {
                gap,
                second_node,
                gap2,
                third_node,
                permanent_mask,
            } => {
                if gap == 0 {
                    return Err(err("nested `gap` must be positive"));
                }
                if second_node == node {
                    return Err(err(
                        "nested `second_node` must differ from the first victim",
                    ));
                }
                if gap2 > 0 && (third_node == node || third_node == second_node) {
                    return Err(err(
                        "nested `third_node` must differ from the earlier victims",
                    ));
                }
                if permanent_mask > 0b111 {
                    return Err(err("nested `permanent_mask` has only three fault bits"));
                }
                if gap2 == 0 && permanent_mask & 0b100 != 0 {
                    return Err(err(
                        "nested `permanent_mask` marks the third fault but `gap2` is 0",
                    ));
                }
                if permanent_mask.count_ones() > 1 {
                    return Err(err(
                        "nested `permanent_mask` may set at most one bit (more permanent kills \
                         could partition the mesh)",
                    ));
                }
            }
            ScenarioKind::LinkCut { to_node } if to_node == node => {
                return Err(err("link_cut `to_node` must differ from `node`"));
            }
            ScenarioKind::MessageLoss { rate } if !(1..=999).contains(&rate) => {
                return Err(err("message_loss `rate` must be 1..=999 per-mille"));
            }
            ScenarioKind::Continuous {
                node_mtbf,
                node_mttr,
                link_mtbf,
                link_mttr,
            } => {
                if node_mtbf == 0 && link_mtbf == 0 {
                    return Err(err(
                        "continuous scenario needs `node_mtbf` and/or `link_mtbf`",
                    ));
                }
                if node_mtbf > 0 && node_mttr == 0 {
                    return Err(err("continuous `node_mtbf` needs a positive `node_mttr`"));
                }
                if link_mtbf > 0 && link_mttr == 0 {
                    return Err(err("continuous `link_mtbf` needs a positive `link_mttr`"));
                }
            }
            _ => {}
        }
        // Continuous scenarios may start at 0 (`at` is a start offset, not a
        // fault time); every scripted fault needs a positive injection cycle.
        let scripted = !matches!(
            self.kind,
            ScenarioKind::None | ScenarioKind::Continuous { .. }
        );
        if scripted && at == 0 {
            return Err(err("scenario `at` must be positive"));
        }
        Ok(())
    }

    /// Parses the object form produced by [`Scenario::to_json`] — the
    /// scenario encoding campaign specs and chaos counterexample artifacts
    /// share. Missing optional fields take the spec defaults.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed or inconsistent scenarios.
    pub fn from_json(v: &Json) -> Result<Scenario, SpecError> {
        parse_scenario(v)
    }

    /// JSON form for the campaign report (`null` for the fault-free case
    /// is the caller's choice).
    pub fn to_json(&self) -> Json {
        let kind = match self.kind {
            ScenarioKind::None => "none",
            ScenarioKind::Transient => "transient",
            ScenarioKind::Permanent => "permanent",
            ScenarioKind::Cycle { .. } => "cycle",
            ScenarioKind::BackToBack { .. } => "back_to_back",
            ScenarioKind::Nested { .. } => "nested",
            ScenarioKind::LinkCut { .. } => "link_cut",
            ScenarioKind::RouterDown => "router_down",
            ScenarioKind::MessageLoss { .. } => "message_loss",
            ScenarioKind::Continuous { .. } => "continuous",
        };
        let mut pairs = vec![("kind".to_string(), Json::from(kind))];
        if self.kind != ScenarioKind::None {
            pairs.push(("node".to_string(), Json::from(u64::from(self.node))));
            pairs.push(("at".to_string(), Json::from(self.at)));
        }
        if let Some(r) = self.repair_at {
            pairs.push(("repair_at".to_string(), Json::from(r)));
        }
        if let ScenarioKind::Cycle { period, count } = self.kind {
            pairs.push(("period".to_string(), Json::from(period)));
            pairs.push(("count".to_string(), Json::from(u64::from(count))));
        }
        if let ScenarioKind::BackToBack { gap, second_node } = self.kind {
            pairs.push(("gap".to_string(), Json::from(gap)));
            pairs.push((
                "second_node".to_string(),
                Json::from(u64::from(second_node)),
            ));
        }
        if let ScenarioKind::Nested {
            gap,
            second_node,
            gap2,
            third_node,
            permanent_mask,
        } = self.kind
        {
            pairs.push(("gap".to_string(), Json::from(gap)));
            pairs.push((
                "second_node".to_string(),
                Json::from(u64::from(second_node)),
            ));
            pairs.push(("gap2".to_string(), Json::from(gap2)));
            pairs.push(("third_node".to_string(), Json::from(u64::from(third_node))));
            pairs.push((
                "permanent_mask".to_string(),
                Json::from(u64::from(permanent_mask)),
            ));
        }
        if let ScenarioKind::LinkCut { to_node } = self.kind {
            pairs.push(("to_node".to_string(), Json::from(u64::from(to_node))));
        }
        if let ScenarioKind::MessageLoss { rate } = self.kind {
            pairs.push(("rate".to_string(), Json::from(u64::from(rate))));
        }
        if let ScenarioKind::Continuous {
            node_mtbf,
            node_mttr,
            link_mtbf,
            link_mttr,
        } = self.kind
        {
            pairs.push(("node_mtbf".to_string(), Json::from(node_mtbf)));
            pairs.push(("node_mttr".to_string(), Json::from(node_mttr)));
            pairs.push(("link_mtbf".to_string(), Json::from(link_mtbf)));
            pairs.push(("link_mttr".to_string(), Json::from(link_mttr)));
        }
        Json::Obj(pairs)
    }
}

/// A campaign: the grid of runs the paper's evaluation is made of.
///
/// Expansion order (and therefore cell ids) is workloads × node counts ×
/// baseline-group × frequencies × scenarios, in spec order.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (reported, not semantic).
    pub name: String,
    /// Master seed; every cell's seed is derived from it (see
    /// [`CampaignSpec::expand`]).
    pub seed: u64,
    /// Workloads to run.
    pub workloads: Vec<SplashConfig>,
    /// Machine sizes to run.
    pub nodes: Vec<u16>,
    /// Checkpoint frequencies (recovery points per second) for ECP cells.
    pub freqs: Vec<f64>,
    /// Run-length policy.
    pub lengths: Lengths,
    /// Include a standard-protocol baseline cell per group (needed for the
    /// overhead decomposition).
    pub baseline: bool,
    /// Fault-injection scenarios applied to every ECP cell.
    pub scenarios: Vec<Scenario>,
}

/// One expanded grid cell: a complete machine configuration plus the
/// scenario to inject.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable id: position in expansion order.
    pub id: u64,
    /// Baseline group this cell belongs to. Cells in the same group share
    /// one derived seed, so each ECP cell is directly comparable to its
    /// group's standard-protocol baseline (paired runs must share a seed —
    /// the paper's methodology).
    pub group: u64,
    /// Human-readable label (`water/n16/f400/ok`, ...).
    pub label: String,
    /// Full machine configuration, seed included.
    pub cfg: MachineConfig,
    /// Failures to inject (always `none` for baseline cells).
    pub scenario: Scenario,
}

impl Cell {
    /// Whether this cell runs the ECP (vs the standard baseline).
    pub fn is_ft(&self) -> bool {
        self.cfg.ft.mode.is_enabled()
    }
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".into(),
            seed: MachineConfig::default().seed,
            workloads: vec![presets::water()],
            nodes: vec![16],
            freqs: vec![100.0],
            lengths: Lengths::Fixed {
                refs: 60_000,
                warmup: 30_000,
            },
            baseline: true,
            scenarios: vec![Scenario::none()],
        }
    }
}

fn workload_by_name(name: &str) -> Result<SplashConfig, SpecError> {
    presets::by_name(name).ok_or_else(|| err(format!("unknown workload `{name}`")))
}

fn as_u64(v: &Json, key: &str) -> Result<u64, SpecError> {
    v.as_u64()
        .ok_or_else(|| err(format!("`{key}` must be a non-negative integer")))
}

fn parse_scenario(v: &Json) -> Result<Scenario, SpecError> {
    let Json::Obj(pairs) = v else {
        return Err(err("each scenario must be an object"));
    };
    const KNOWN: &[&str] = &[
        "kind",
        "node",
        "at",
        "repair_at",
        "period",
        "count",
        "gap",
        "second_node",
        "gap2",
        "third_node",
        "permanent_mask",
        "to_node",
        "rate",
        "node_mtbf",
        "node_mttr",
        "link_mtbf",
        "link_mttr",
    ];
    for (k, _) in pairs {
        if !KNOWN.contains(&k.as_str()) {
            return Err(err(format!("unknown scenario key `{k}`")));
        }
    }
    let kind_name = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| err("scenario needs a string `kind`"))?;
    let node = match v.get("node") {
        Some(n) => {
            u16::try_from(as_u64(n, "node")?).map_err(|_| err("scenario `node` out of range"))?
        }
        None => 1,
    };
    let at = match v.get("at") {
        Some(a) => as_u64(a, "at")?,
        None => 20_000,
    };
    let repair_at = match v.get("repair_at") {
        Some(r) => Some(as_u64(r, "repair_at")?),
        None => None,
    };
    let kind = match kind_name {
        "none" => ScenarioKind::None,
        "transient" => ScenarioKind::Transient,
        "permanent" => ScenarioKind::Permanent,
        "cycle" => ScenarioKind::Cycle {
            period: match v.get("period") {
                Some(p) => as_u64(p, "period")?,
                None => 200_000,
            },
            count: u32::try_from(match v.get("count") {
                Some(c) => as_u64(c, "count")?,
                None => 2,
            })
            .map_err(|_| err("scenario `count` out of range"))?,
        },
        "back_to_back" => ScenarioKind::BackToBack {
            gap: match v.get("gap") {
                Some(g) => as_u64(g, "gap")?,
                None => 1_000,
            },
            second_node: match v.get("second_node") {
                Some(s) => u16::try_from(as_u64(s, "second_node")?)
                    .map_err(|_| err("scenario `second_node` out of range"))?,
                None => 0,
            },
        },
        "nested" => ScenarioKind::Nested {
            gap: match v.get("gap") {
                Some(g) => as_u64(g, "gap")?,
                None => 1_000,
            },
            second_node: match v.get("second_node") {
                Some(s) => u16::try_from(as_u64(s, "second_node")?)
                    .map_err(|_| err("scenario `second_node` out of range"))?,
                None => 0,
            },
            gap2: match v.get("gap2") {
                Some(g) => as_u64(g, "gap2")?,
                None => 0,
            },
            third_node: match v.get("third_node") {
                Some(t) => u16::try_from(as_u64(t, "third_node")?)
                    .map_err(|_| err("scenario `third_node` out of range"))?,
                None => 0,
            },
            permanent_mask: match v.get("permanent_mask") {
                Some(m) => u8::try_from(as_u64(m, "permanent_mask")?)
                    .map_err(|_| err("scenario `permanent_mask` out of range"))?,
                None => 1,
            },
        },
        "link_cut" => ScenarioKind::LinkCut {
            to_node: match v.get("to_node") {
                Some(t) => u16::try_from(as_u64(t, "to_node")?)
                    .map_err(|_| err("scenario `to_node` out of range"))?,
                None => 0,
            },
        },
        "router_down" => ScenarioKind::RouterDown,
        "message_loss" => ScenarioKind::MessageLoss {
            rate: match v.get("rate") {
                Some(r) => u32::try_from(as_u64(r, "rate")?)
                    .map_err(|_| err("scenario `rate` out of range"))?,
                None => 100,
            },
        },
        "continuous" => {
            let mean = |key| match v.get(key) {
                Some(m) => as_u64(m, key),
                None => Ok(0),
            };
            ScenarioKind::Continuous {
                node_mtbf: mean("node_mtbf")?,
                node_mttr: mean("node_mttr")?,
                link_mtbf: mean("link_mtbf")?,
                link_mttr: mean("link_mttr")?,
            }
        }
        other => {
            return Err(err(format!(
                "scenario kind must be none|transient|permanent|cycle|back_to_back|nested\
                 |link_cut|router_down|message_loss|continuous, got `{other}`"
            )))
        }
    };
    // Key-presence rules: each optional key belongs to the kinds that read
    // it. The value rules live in `Scenario::check_values`.
    let keys_only_for = |keys: &[&str], applies: bool, msg: &str| {
        if !applies && keys.iter().any(|k| v.get(k).is_some()) {
            Err(err(msg))
        } else {
            Ok(())
        }
    };
    keys_only_for(
        &["period", "count"],
        matches!(kind, ScenarioKind::Cycle { .. }),
        "`period`/`count` only apply to cycle scenarios",
    )?;
    keys_only_for(
        &["gap", "second_node"],
        matches!(
            kind,
            ScenarioKind::BackToBack { .. } | ScenarioKind::Nested { .. }
        ),
        "`gap`/`second_node` only apply to back_to_back and nested scenarios",
    )?;
    keys_only_for(
        &["gap2", "third_node", "permanent_mask"],
        matches!(kind, ScenarioKind::Nested { .. }),
        "`gap2`/`third_node`/`permanent_mask` only apply to nested scenarios",
    )?;
    keys_only_for(
        &["to_node"],
        matches!(kind, ScenarioKind::LinkCut { .. }),
        "`to_node` only applies to link_cut scenarios",
    )?;
    keys_only_for(
        &["rate"],
        matches!(kind, ScenarioKind::MessageLoss { .. }),
        "`rate` only applies to message_loss scenarios",
    )?;
    keys_only_for(
        &["node_mtbf", "node_mttr", "link_mtbf", "link_mttr"],
        matches!(kind, ScenarioKind::Continuous { .. }),
        "`node_mtbf`/`node_mttr`/`link_mtbf`/`link_mttr` only apply to continuous scenarios",
    )?;
    let scenario = Scenario {
        kind,
        node,
        at,
        repair_at,
    };
    scenario.check_values()?;
    Ok(scenario)
}

impl CampaignSpec {
    /// Parses a spec from its JSON text. Unknown keys are rejected so typos
    /// fail loudly instead of silently shrinking the grid.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed JSON, unknown keys or values,
    /// and for specs that fail [`CampaignSpec::validate`].
    pub fn parse(text: &str) -> Result<CampaignSpec, SpecError> {
        let doc = Json::parse(text).map_err(|e| err(format!("spec is not valid JSON: {e}")))?;
        let Json::Obj(pairs) = &doc else {
            return Err(err("spec must be a JSON object"));
        };
        const KNOWN: &[&str] = &[
            "name",
            "seed",
            "workloads",
            "nodes",
            "freqs",
            "refs",
            "warmup",
            "lengths",
            "baseline",
            "scenarios",
        ];
        for (k, _) in pairs {
            if !KNOWN.contains(&k.as_str()) {
                return Err(err(format!("unknown spec key `{k}`")));
            }
        }
        let mut spec = CampaignSpec::default();
        if let Some(n) = doc.get("name") {
            spec.name = n
                .as_str()
                .ok_or_else(|| err("`name` must be a string"))?
                .to_string();
        }
        if let Some(s) = doc.get("seed") {
            spec.seed = as_u64(s, "seed")?;
        }
        if let Some(w) = doc.get("workloads") {
            let names = w
                .as_array()
                .ok_or_else(|| err("`workloads` must be an array of names"))?;
            spec.workloads = names
                .iter()
                .map(|n| {
                    n.as_str()
                        .ok_or_else(|| err("workload names must be strings"))
                        .and_then(workload_by_name)
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(ns) = doc.get("nodes") {
            let xs = ns
                .as_array()
                .ok_or_else(|| err("`nodes` must be an array of integers"))?;
            spec.nodes = xs
                .iter()
                .map(|x| {
                    as_u64(x, "nodes")
                        .and_then(|v| u16::try_from(v).map_err(|_| err("node count out of range")))
                })
                .collect::<Result<_, _>>()?;
        }
        if let Some(fs) = doc.get("freqs") {
            let xs = fs
                .as_array()
                .ok_or_else(|| err("`freqs` must be an array of numbers"))?;
            spec.freqs = xs
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| err("`freqs` must be numbers")))
                .collect::<Result<_, _>>()?;
        }
        let fixed_refs = doc.get("refs").map(|v| as_u64(v, "refs")).transpose()?;
        let fixed_warmup = doc.get("warmup").map(|v| as_u64(v, "warmup")).transpose()?;
        match doc.get("lengths").map(|v| {
            v.as_str()
                .ok_or_else(|| err("`lengths` must be \"fixed\" or \"paper\""))
        }) {
            None | Some(Ok("fixed")) => {
                spec.lengths = Lengths::Fixed {
                    refs: fixed_refs.unwrap_or(60_000),
                    warmup: fixed_warmup.unwrap_or(30_000),
                };
            }
            Some(Ok("paper")) => {
                if fixed_refs.is_some() || fixed_warmup.is_some() {
                    return Err(err("`refs`/`warmup` conflict with `lengths: \"paper\"`"));
                }
                spec.lengths = Lengths::PerFrequency;
            }
            Some(Ok(other)) => {
                return Err(err(format!(
                    "`lengths` must be \"fixed\" or \"paper\", got `{other}`"
                )))
            }
            Some(Err(e)) => return Err(e),
        }
        if let Some(b) = doc.get("baseline") {
            spec.baseline = b
                .as_bool()
                .ok_or_else(|| err("`baseline` must be a boolean"))?;
        }
        if let Some(sc) = doc.get("scenarios") {
            let xs = sc
                .as_array()
                .ok_or_else(|| err("`scenarios` must be an array of objects"))?;
            spec.scenarios = xs.iter().map(parse_scenario).collect::<Result<_, _>>()?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the spec for emptiness and machine-level consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.workloads.is_empty() {
            return Err(err("spec has no workloads"));
        }
        if self.nodes.is_empty() {
            return Err(err("spec has no node counts"));
        }
        if self.freqs.is_empty() && !self.baseline {
            return Err(err(
                "spec has no frequencies and no baseline: nothing to run",
            ));
        }
        if self.scenarios.is_empty() {
            return Err(err(
                "spec has an empty scenario list (omit it for fault-free)",
            ));
        }
        if matches!(self.lengths, Lengths::PerFrequency) && self.freqs.is_empty() {
            return Err(err("`lengths: \"paper\"` needs at least one frequency"));
        }
        if let Lengths::Fixed { refs, .. } = self.lengths {
            if refs == 0 {
                return Err(err("`refs` must be positive"));
            }
        }
        for &f in &self.freqs {
            FtConfig::try_enabled(f).map_err(err)?;
            if matches!(self.lengths, Lengths::PerFrequency) && checked_lengths_for(f).is_none() {
                return Err(err(format!(
                    "frequency {f:e} is too low for `lengths: \"paper\"`: its run lengths overflow"
                )));
            }
        }
        for &n in &self.nodes {
            if n < 2 {
                return Err(err("every machine needs at least two nodes"));
            }
            if n < ECP_MIN_LIVE_NODES && !self.freqs.is_empty() {
                return Err(err(format!(
                    "{n} nodes is too small for the ECP (four copies per modified item)"
                )));
            }
            for sc in &self.scenarios {
                sc.validate_for(n)?;
            }
        }
        let faulty = self.scenarios.iter().any(|s| s.kind != ScenarioKind::None);
        if faulty && self.freqs.is_empty() {
            return Err(err(
                "failure scenarios need at least one frequency (the baseline cannot recover)",
            ));
        }
        Ok(())
    }

    /// Expands the spec into its flat, deterministically ordered cell list.
    ///
    /// Every cell's seed is derived from `(campaign seed, group id)` with
    /// [`ftcoma_sim::derive_seed`]: cells in the same baseline group share
    /// the seed (paired standard/ECP runs must — see
    /// [`MachineConfig::seed`]), distinct groups get independent streams,
    /// and nothing depends on execution order, so results are identical at
    /// any `--jobs` level.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid; call [`CampaignSpec::validate`]
    /// first when the spec was built programmatically.
    pub fn expand(&self) -> Vec<Cell> {
        self.validate().expect("invalid campaign spec");
        let mut cells = Vec::new();
        let mut group: u64 = 0;
        for wl in &self.workloads {
            for &nodes in &self.nodes {
                // One baseline group per distinct run length: fixed lengths
                // share one group across all frequencies; paper lengths give
                // each frequency its own (refs differ, so baselines do too).
                let groups: Vec<(u64, u64, Vec<f64>)> = match self.lengths {
                    Lengths::Fixed { refs, warmup } => {
                        vec![(refs, warmup, self.freqs.clone())]
                    }
                    Lengths::PerFrequency => self
                        .freqs
                        .iter()
                        .map(|&f| {
                            let (refs, warmup) = lengths_for(f);
                            (refs, warmup, vec![f])
                        })
                        .collect(),
                };
                for (refs, warmup, freqs) in groups {
                    let seed = derive_seed(self.seed, group);
                    let base = MachineConfig {
                        nodes,
                        refs_per_node: refs,
                        warmup_refs_per_node: warmup,
                        workload: wl.clone(),
                        seed,
                        ..MachineConfig::default()
                    };
                    let wl_tag = wl.name.to_ascii_lowercase();
                    if self.baseline {
                        cells.push(Cell {
                            id: cells.len() as u64,
                            group,
                            label: format!("{wl_tag}/n{nodes}/r{refs}/std"),
                            cfg: MachineConfig {
                                ft: FtConfig::disabled(),
                                ..base.clone()
                            },
                            scenario: Scenario::none(),
                        });
                    }
                    for &freq in &freqs {
                        for sc in &self.scenarios {
                            cells.push(Cell {
                                id: cells.len() as u64,
                                group,
                                label: format!("{wl_tag}/n{nodes}/r{refs}/f{freq}/{}", sc.label()),
                                cfg: MachineConfig {
                                    ft: FtConfig::enabled(freq),
                                    // Failure runs verify recovery against
                                    // the committed-value oracle.
                                    verify: sc.kind != ScenarioKind::None,
                                    ..base.clone()
                                },
                                scenario: *sc,
                            });
                        }
                    }
                    group += 1;
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec_text() -> &'static str {
        r#"{
            "name": "unit",
            "seed": 7,
            "workloads": ["water", "mp3d"],
            "nodes": [4],
            "freqs": [400, 200],
            "refs": 3000,
            "warmup": 1000,
            "scenarios": [
                {"kind": "none"},
                {"kind": "transient", "node": 1, "at": 5000}
            ]
        }"#
    }

    #[test]
    fn expansion_count_and_stable_ids() {
        let spec = CampaignSpec::parse(small_spec_text()).unwrap();
        let cells = spec.expand();
        // 2 workloads x 1 node count x (1 baseline + 2 freqs x 2 scenarios).
        assert_eq!(cells.len(), 10);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i as u64);
        }
        // Re-expansion is byte-identical in ids, labels and seeds.
        let again = spec.expand();
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.label, b.label);
            assert_eq!(a.cfg.seed, b.cfg.seed);
        }
        // Baseline and its ECP cells share the group seed; groups differ.
        assert_eq!(cells[0].cfg.seed, cells[1].cfg.seed);
        assert_ne!(cells[0].cfg.seed, cells[5].cfg.seed);
        assert!(!cells[0].is_ft());
        assert!(cells[1].is_ft());
        // Failure cells verify against the oracle.
        assert!(cells[2].cfg.verify);
        assert!(!cells[1].cfg.verify);
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let e = CampaignSpec::parse(r#"{"bogus": 1}"#).unwrap_err();
        assert!(e.0.contains("unknown spec key"), "{e}");
        let e =
            CampaignSpec::parse(r#"{"nodes": [4], "scenarios": [{"kind": "none", "knid": 1}]}"#)
                .unwrap_err();
        assert!(e.0.contains("unknown scenario key"), "{e}");
    }

    #[test]
    fn validation_catches_inconsistencies() {
        assert!(CampaignSpec::parse(r#"{"workloads": []}"#).is_err());
        // ECP needs >= 4 nodes.
        assert!(CampaignSpec::parse(r#"{"nodes": [2]}"#).is_err());
        // Scenario victim must exist.
        assert!(CampaignSpec::parse(
            r#"{"nodes": [4], "scenarios": [{"kind": "transient", "node": 9}]}"#
        )
        .is_err());
        // A node lost for good needs 5 nodes; a transient chain does not.
        let on = |n: u16, kind: &str| {
            let spec = format!(r#"{{"nodes": [{n}], "scenarios": [{{"node": 1, {kind}}}]}}"#);
            CampaignSpec::parse(&spec)
        };
        for kind in [
            r#""kind": "permanent""#,
            r#""kind": "back_to_back", "gap": 10, "second_node": 2"#,
            r#""kind": "nested", "gap": 10, "second_node": 2, "permanent_mask": 2"#,
            r#""kind": "router_down""#,
        ] {
            assert!(
                on(4, kind).unwrap_err().0.contains("at least 5 nodes"),
                "{kind}"
            );
            assert!(on(5, kind).is_ok(), "{kind}");
        }
        let transient = r#""kind": "nested", "gap": 10, "second_node": 2, "permanent_mask": 0"#;
        assert!(on(4, transient).is_ok());
        // repair_at only for permanent failures.
        assert!(
            CampaignSpec::parse(r#"{"scenarios": [{"kind": "transient", "repair_at": 10}]}"#)
                .is_err()
        );
        // repair_at must come strictly after the failure itself.
        let e = parse_scenario(
            &Json::parse(r#"{"kind": "permanent", "at": 500, "repair_at": 500}"#).unwrap(),
        )
        .unwrap_err();
        assert!(e.0.contains("strictly after"), "{e}");
        assert!(parse_scenario(
            &Json::parse(r#"{"kind": "permanent", "at": 500, "repair_at": 400}"#).unwrap()
        )
        .is_err());
        assert!(parse_scenario(
            &Json::parse(r#"{"kind": "permanent", "at": 500, "repair_at": 501}"#).unwrap()
        )
        .is_ok());
        // paper lengths conflict with explicit refs.
        assert!(CampaignSpec::parse(r#"{"lengths": "paper", "refs": 100}"#).is_err());
        // Baseline-only campaigns are allowed.
        let spec = CampaignSpec::parse(r#"{"freqs": [], "baseline": true}"#).unwrap();
        assert_eq!(spec.expand().len(), 1);
    }

    #[test]
    fn lengths_scale_with_period() {
        let (r400, w400) = lengths_for(400.0);
        let (r5, w5) = lengths_for(5.0);
        assert_eq!(r400, 60_000);
        assert_eq!(w400, 30_000);
        assert!(r5 >= 3_000_000);
        assert!(w5 >= 1_500_000);
    }

    #[test]
    fn paper_lengths_give_one_group_per_frequency() {
        let spec = CampaignSpec::parse(
            r#"{"workloads": ["water"], "nodes": [4], "freqs": [400, 5], "lengths": "paper"}"#,
        )
        .unwrap();
        let cells = spec.expand();
        // Two groups, each with a baseline and one ECP cell.
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].group, cells[1].group);
        assert_eq!(cells[2].group, cells[3].group);
        assert_ne!(cells[0].group, cells[2].group);
        // Low frequency runs are long (lengths_for floor is 60k refs).
        assert_eq!(cells[0].cfg.refs_per_node, 60_000);
        assert!(cells[2].cfg.refs_per_node >= 3_000_000);
    }

    #[test]
    fn scenario_labels_and_json() {
        let sc = parse_scenario(
            &Json::parse(r#"{"kind": "permanent", "node": 3, "at": 100, "repair_at": 900}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(sc.label(), "p3@100+r@900");
        let j = sc.to_json();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("permanent"));
        assert_eq!(j.get("repair_at").and_then(Json::as_u64), Some(900));
        let cyc = parse_scenario(
            &Json::parse(r#"{"kind": "cycle", "node": 1, "at": 50, "period": 60, "count": 3}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(cyc.label(), "c1@50x3/60");
    }

    #[test]
    fn net_scenarios_parse_label_and_validate() {
        let lc = parse_scenario(
            &Json::parse(r#"{"kind": "link_cut", "node": 1, "to_node": 2, "at": 400}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(lc.label(), "lc1-2@400");
        assert_eq!(lc.to_json().get("to_node").and_then(Json::as_u64), Some(2));
        let rd =
            parse_scenario(&Json::parse(r#"{"kind": "router_down", "node": 3, "at": 9}"#).unwrap())
                .unwrap();
        assert_eq!(rd.label(), "rd3@9");
        let ml = parse_scenario(
            &Json::parse(r#"{"kind": "message_loss", "rate": 250, "at": 7}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(ml.label(), "ml250@7");
        assert_eq!(ml.to_json().get("rate").and_then(Json::as_u64), Some(250));
        // Round-trip through to_json/from_json.
        assert_eq!(Scenario::from_json(&lc.to_json()).unwrap(), lc);
        assert_eq!(Scenario::from_json(&ml.to_json()).unwrap(), ml);
        // Rate bounds and cross-field checks.
        assert!(
            parse_scenario(&Json::parse(r#"{"kind": "message_loss", "rate": 1000}"#).unwrap())
                .is_err()
        );
        assert!(
            parse_scenario(&Json::parse(r#"{"kind": "transient", "rate": 5}"#).unwrap()).is_err()
        );
        assert!(parse_scenario(
            &Json::parse(r#"{"kind": "link_cut", "node": 2, "to_node": 2}"#).unwrap()
        )
        .is_err());
        // Adjacency: on a 2x2 mesh nodes 0 and 3 sit on the diagonal.
        assert!(CampaignSpec::parse(
            r#"{"nodes": [4], "scenarios": [{"kind": "link_cut", "node": 0, "to_node": 3}]}"#
        )
        .is_err());
        let ok = CampaignSpec::parse(
            r#"{"nodes": [4], "scenarios": [{"kind": "link_cut", "node": 0, "to_node": 1}]}"#,
        )
        .unwrap();
        assert!(ok.expand().iter().any(|c| c.label.ends_with("lc0-1@20000")));
    }

    #[test]
    fn nested_scenarios_parse_label_and_validate() {
        let sc = parse_scenario(
            &Json::parse(
                r#"{"kind": "nested", "node": 2, "at": 30000, "gap": 50, "second_node": 5,
                    "gap2": 800, "third_node": 1, "permanent_mask": 1}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(sc.label(), "nf2@30000+50f5+800f1m1");
        assert_eq!(Scenario::from_json(&sc.to_json()).unwrap(), sc);
        // Two-fault form: gap2 defaults to 0, first fault permanent.
        let two = parse_scenario(
            &Json::parse(r#"{"kind": "nested", "node": 2, "gap": 50, "second_node": 5}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(two.label(), "nf2@20000+50f5m1");
        assert_eq!(Scenario::from_json(&two.to_json()).unwrap(), two);
        // Distinct victims, one permanent bit at most, third bit needs gap2.
        assert!(parse_scenario(
            &Json::parse(r#"{"kind": "nested", "node": 2, "second_node": 2}"#).unwrap()
        )
        .is_err());
        assert!(parse_scenario(
            &Json::parse(r#"{"kind": "nested", "second_node": 1, "permanent_mask": 3}"#).unwrap()
        )
        .is_err());
        assert!(parse_scenario(
            &Json::parse(r#"{"kind": "nested", "second_node": 1, "permanent_mask": 4}"#).unwrap()
        )
        .is_err());
        // The nested-only keys are rejected elsewhere.
        assert!(
            parse_scenario(&Json::parse(r#"{"kind": "transient", "gap2": 9}"#).unwrap()).is_err()
        );
        // Victims must exist on the machine.
        assert!(CampaignSpec::parse(
            r#"{"nodes": [4], "scenarios": [{"kind": "nested", "node": 1, "second_node": 9}]}"#
        )
        .is_err());
    }

    #[test]
    fn continuous_scenarios_parse_label_and_validate() {
        let sc = parse_scenario(
            &Json::parse(
                r#"{"kind": "continuous", "at": 0, "node_mtbf": 60000, "node_mttr": 9000,
                    "link_mtbf": 80000, "link_mttr": 7000}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(sc.label(), "cont@0+n60000/9000+l80000/7000");
        // `at` is a start offset here, so 0 is allowed.
        assert_eq!(sc.at, 0);
        // Round-trip through to_json/from_json.
        assert_eq!(Scenario::from_json(&sc.to_json()).unwrap(), sc);
        // Node-only process: the link half stays disabled and off the label.
        let node_only = parse_scenario(
            &Json::parse(r#"{"kind": "continuous", "node_mtbf": 50000, "node_mttr": 5000}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(node_only.label(), "cont@20000+n50000/5000");
        // An MTBF without its MTTR, or no process at all, is rejected.
        assert!(
            parse_scenario(&Json::parse(r#"{"kind": "continuous", "node_mtbf": 9}"#).unwrap())
                .is_err()
        );
        assert!(parse_scenario(&Json::parse(r#"{"kind": "continuous"}"#).unwrap()).is_err());
        // The mean keys belong to continuous scenarios alone.
        assert!(
            parse_scenario(&Json::parse(r#"{"kind": "transient", "node_mtbf": 9}"#).unwrap())
                .is_err()
        );
    }
}
