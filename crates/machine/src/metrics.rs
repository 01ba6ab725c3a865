//! Run metrics: everything the paper's figures report.

use ftcoma_net::NetStats;
use ftcoma_sim::stats::Histogram;
use ftcoma_sim::{Clock, Cycles};

/// Per-node breakdown of one machine run.
///
/// One entry per node slot (dead nodes keep their entry so indices stay
/// aligned with [`NodeId`](ftcoma_mem::NodeId) indices). Counters follow the
/// node's processor and attraction memory; machine-global costs (create
/// stalls, recovery) are charged to every node that stalled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Memory references issued by this node's processor.
    pub refs: u64,
    /// Load misses that stalled this processor.
    pub read_misses: u64,
    /// Store misses/upgrades that stalled this processor.
    pub write_misses: u64,
    /// Runtime injections this node originated (all causes).
    pub injections: u64,
    /// Items this node secured during create phases.
    pub items_checkpointed: u64,
    /// Recovery bytes this node physically sent during create phases.
    pub replication_bytes: u64,
    /// Cycles this node's processor was stopped for checkpoint
    /// establishment (create stall + its own commit scan).
    pub ckpt_stall_cycles: Cycles,
    /// Cycles this node's processor was stopped rolling back after
    /// failures (its own rollback scan).
    pub rollback_cycles: Cycles,
    /// Pages allocated in this node's attraction memory at the end of the
    /// run (0 for dead nodes).
    pub pages_allocated: u64,
    /// Peak page allocation in this node's attraction memory.
    pub pages_peak: u64,
    /// Cycles this node spent down (from failure injection until the end of
    /// the recovery that revived it, or until repair / end of run for
    /// permanent failures).
    pub down_cycles: Cycles,
    /// Failures injected on this node.
    pub down_count: u64,
    /// Times this node was repaired and re-integrated after a permanent
    /// failure.
    pub repairs: u64,
}

impl NodeMetrics {
    /// Counters accumulated since `base`; the page-allocation gauges keep
    /// their current values.
    pub fn delta_since(&self, base: &NodeMetrics) -> NodeMetrics {
        NodeMetrics {
            refs: self.refs - base.refs,
            read_misses: self.read_misses - base.read_misses,
            write_misses: self.write_misses - base.write_misses,
            injections: self.injections - base.injections,
            items_checkpointed: self.items_checkpointed - base.items_checkpointed,
            replication_bytes: self.replication_bytes - base.replication_bytes,
            ckpt_stall_cycles: self.ckpt_stall_cycles - base.ckpt_stall_cycles,
            rollback_cycles: self.rollback_cycles - base.rollback_cycles,
            pages_allocated: self.pages_allocated,
            pages_peak: self.pages_peak,
            down_cycles: self.down_cycles - base.down_cycles,
            down_count: self.down_count - base.down_count,
            repairs: self.repairs - base.repairs,
        }
    }

    /// Total misses (loads + stores).
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }
}

/// One sample row of the streaming time-series telemetry
/// ([`MachineConfig::timeseries_every`](crate::MachineConfig)).
///
/// Counters (`refs`, misses, `checkpoints`, …) are cumulative machine-wide
/// totals as of `cycle`; `refs_delta` is the per-interval difference so a
/// rate needs no neighbouring row. Rows are pure observation: sampling
/// never schedules events, so enabling it cannot perturb the simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TsSample {
    /// Sample time (absolute cycles).
    pub cycle: Cycles,
    /// Memory references completed so far.
    pub refs: u64,
    /// References completed since the previous sample.
    pub refs_delta: u64,
    /// Load misses so far.
    pub read_misses: u64,
    /// Store misses so far.
    pub write_misses: u64,
    /// Coherence transactions in flight (stalled processors + undelivered
    /// messages).
    pub in_flight: u64,
    /// Events pending in the simulation queue.
    pub queue_depth: u64,
    /// Live nodes.
    pub nodes_up: u64,
    /// Node ids currently down (failed and not yet recovered/repaired).
    pub nodes_down: Vec<u16>,
    /// Recovery points committed so far.
    pub checkpoints: u64,
    /// Failures injected so far.
    pub failures: u64,
    /// Total processor cycles lost to checkpoint stalls so far.
    pub ckpt_stall_cycles: Cycles,
    /// Total processor cycles lost to rollback scans so far.
    pub rollback_cycles: Cycles,
}

/// Per-phase latency distributions of the transaction and recovery paths.
///
/// Each histogram records the duration (in cycles) of one causal phase:
/// the three legs of a remote coherence transaction (request travelling to
/// the item's home, a forward to the current owner, and the data reply) and
/// the four stages of failure handling (detection, per-node rollback scans,
/// reconfiguration, and the replay window until the next commit). These are
/// always recorded — they are part of [`RunMetrics`] and therefore covered
/// by the zero-cost-tracing invariant (identical whether span capture is on
/// or off).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseLatency {
    /// Request leg: requester → home (localization-pointer lookup).
    pub dir_lookup: Histogram,
    /// Forward leg: home → current owner.
    pub home_fwd: Histogram,
    /// Data leg: owner/home → requester.
    pub data_reply: Histogram,
    /// Failure-detection time (zero under the fail-stop model).
    pub detection: Histogram,
    /// Per-node rollback scans (one sample per surviving node per failure).
    pub rollback: Histogram,
    /// Reconfiguration window (failure → machine ready to resume).
    pub reconfiguration: Histogram,
    /// Replay window (recovery end → next commit re-covers lost work).
    pub replay: Histogram,
    /// Abandoned recovery windows: one sample per restart, recording how
    /// far the abandoned attempt had progressed (its failure → the nested
    /// fault that restarted it).
    pub restart: Histogram,
}

impl PhaseLatency {
    /// Per-histogram [`Histogram::delta_since`].
    pub fn delta_since(&self, base: &PhaseLatency) -> PhaseLatency {
        PhaseLatency {
            dir_lookup: self.dir_lookup.delta_since(&base.dir_lookup),
            home_fwd: self.home_fwd.delta_since(&base.home_fwd),
            data_reply: self.data_reply.delta_since(&base.data_reply),
            detection: self.detection.delta_since(&base.detection),
            rollback: self.rollback.delta_since(&base.rollback),
            reconfiguration: self.reconfiguration.delta_since(&base.reconfiguration),
            replay: self.replay.delta_since(&base.replay),
            restart: self.restart.delta_since(&base.restart),
        }
    }

    /// (name, histogram) pairs in stable export order.
    pub fn named(&self) -> [(&'static str, &Histogram); 8] {
        [
            ("dir_lookup", &self.dir_lookup),
            ("home_fwd", &self.home_fwd),
            ("data_reply", &self.data_reply),
            ("detection", &self.detection),
            ("rollback", &self.rollback),
            ("reconfiguration", &self.reconfiguration),
            ("replay", &self.replay),
            ("restart", &self.restart),
        ]
    }

    /// Merges another run's distributions into this one (bucket-wise).
    pub fn merge(&mut self, other: &PhaseLatency) {
        self.dir_lookup.merge(&other.dir_lookup);
        self.home_fwd.merge(&other.home_fwd);
        self.data_reply.merge(&other.data_reply);
        self.detection.merge(&other.detection);
        self.rollback.merge(&other.rollback);
        self.reconfiguration.merge(&other.reconfiguration);
        self.replay.merge(&other.replay);
        self.restart.merge(&other.restart);
    }
}

/// Aggregated measurements of one machine run.
///
/// The execution-time decomposition follows §4.2.3 of the paper:
/// `T_ft = T_standard + T_create + T_commit + T_pollution`, where the first
/// three terms are measured directly ([`RunMetrics::total_cycles`],
/// [`RunMetrics::t_create`], [`RunMetrics::t_commit`]) and `T_pollution` is
/// the residual against a paired standard-protocol run with the same seed
/// ([`Decomposition::of`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Total simulated execution time.
    pub total_cycles: Cycles,
    /// Instructions executed (memory references + compute gaps, including
    /// any re-execution after rollbacks).
    pub instructions: u64,
    /// Memory references completed.
    pub refs: u64,
    /// Loads issued / load misses (stalled loads).
    pub reads: u64,
    /// Load misses requiring a coherence transaction.
    pub read_misses: u64,
    /// Stores issued.
    pub writes: u64,
    /// Store misses/upgrades requiring a coherence transaction.
    pub write_misses: u64,
    /// Loads served by the processor cache.
    pub cache_read_hits: u64,
    /// Loads served by a local `Shared-CK` recovery copy.
    pub shared_ck_reads: u64,

    /// Recovery points committed.
    pub checkpoints: u64,
    /// Total cycles spent in create phases (global stall windows).
    pub t_create: Cycles,
    /// Total cycles spent in commit phases (worst node per checkpoint).
    pub t_commit: Cycles,
    /// Total cycles spent recovering from failures.
    pub t_recovery: Cycles,
    /// Failures injected.
    pub failures: u64,
    /// Permanently failed nodes repaired and re-integrated.
    pub repairs: u64,
    /// Failures whose recovery ran to completion (reconfiguration done,
    /// verification — when enabled — passed). A restarted recovery
    /// credits every fault folded into the episode when it completes.
    pub faults_survived: u64,
    /// Failures whose copy-accounting audit certified a data loss (some
    /// written committed item retained zero live copies) and halted the
    /// machine. At most 1 per run, since such a fault is terminal.
    pub faults_unsurvivable: u64,
    /// Recovery restarts: faults that landed inside an open recovery
    /// window, abandoned the in-flight recovery and re-entered it with
    /// the new victim folded in.
    pub recovery_restarts: u64,
    /// Deepest recovery episode of the run: the most faults ever folded
    /// into one recovery before it completed (1 = no nesting, 0 = no
    /// faults). A gauge — kept intact by [`RunMetrics::delta_since`].
    pub recovery_max_depth: u64,

    /// Items secured per create phase, totalled.
    pub items_checkpointed: u64,
    /// Items secured by re-labelling an existing replica (no transfer).
    pub reused_replicas: u64,
    /// Bytes of recovery data physically transferred during create phases.
    pub replication_bytes: u64,

    /// Runtime injections by trigger.
    pub injections_replacement: u64,
    /// Injections caused by read faults on `Inv-CK` copies.
    pub injections_on_read: u64,
    /// Injections caused by write faults on `Inv-CK` copies.
    pub injections_write_inv_ck: u64,
    /// Injections caused by write faults on `Shared-CK` copies.
    pub injections_write_shared_ck: u64,

    /// Sum over nodes of pages allocated at the end of the run (Fig. 7's
    /// memory-overhead numerator).
    pub pages_allocated: u64,
    /// Sum over nodes of the peak page allocation.
    pub pages_peak: u64,

    /// Network messages sent.
    pub net_messages: u64,
    /// Cycles messages spent waiting for busy links.
    pub net_contention_cycles: Cycles,
    /// Transport retransmissions (timer expired, packet resent).
    pub net_retries: u64,
    /// Transport retry-timer expirations with the ack still outstanding
    /// (counts the final, escalating expiration too, unlike `net_retries`).
    pub net_timeouts: u64,
    /// Extra hops taken beyond the Manhattan distance because fault-aware
    /// routing detoured around failed links or routers.
    pub net_detour_hops: u64,
    /// Messages the fault plan dropped in flight, plus send attempts
    /// refused because no healthy route existed.
    pub net_dropped_msgs: u64,

    /// Number of nodes in the run (for per-node normalisation).
    pub nodes: u64,

    /// Per-node breakdown, indexed by node id (empty when the machine has
    /// not run; one entry per node slot afterwards, dead nodes included).
    pub per_node: Vec<NodeMetrics>,

    /// Distribution of memory-access completion latencies (cycles), from
    /// 1-cycle cache hits to stalled coherence transactions.
    pub access_latency: Histogram,

    /// Per-phase latency distributions of the transaction and recovery
    /// paths (always on; see [`PhaseLatency`]).
    pub phases: PhaseLatency,

    /// Per-node down intervals `(from, to)` in absolute cycles, indexed by
    /// node id (empty until the machine has run). Like the page gauges,
    /// these describe the whole run's timeline and are kept intact by
    /// [`RunMetrics::delta_since`].
    pub down_intervals: Vec<Vec<(Cycles, Cycles)>>,
}

impl RunMetrics {
    /// Copies the fabric's cumulative message, contention and detour
    /// counters.
    pub(crate) fn record_net(&mut self, stats: &NetStats) {
        self.net_messages = stats.messages;
        self.net_contention_cycles = stats.contention_cycles;
        self.net_detour_hops = stats.detour_hops;
    }

    /// Counters accumulated since `base` (used to discard warmup): every
    /// monotone counter is subtracted; `nodes` and the page-allocation
    /// gauges keep their current values.
    pub fn delta_since(&self, base: &RunMetrics) -> RunMetrics {
        RunMetrics {
            total_cycles: self.total_cycles - base.total_cycles,
            instructions: self.instructions - base.instructions,
            refs: self.refs - base.refs,
            reads: self.reads - base.reads,
            read_misses: self.read_misses - base.read_misses,
            writes: self.writes - base.writes,
            write_misses: self.write_misses - base.write_misses,
            cache_read_hits: self.cache_read_hits - base.cache_read_hits,
            shared_ck_reads: self.shared_ck_reads - base.shared_ck_reads,
            checkpoints: self.checkpoints - base.checkpoints,
            t_create: self.t_create - base.t_create,
            t_commit: self.t_commit - base.t_commit,
            t_recovery: self.t_recovery - base.t_recovery,
            failures: self.failures - base.failures,
            repairs: self.repairs - base.repairs,
            faults_survived: self.faults_survived - base.faults_survived,
            faults_unsurvivable: self.faults_unsurvivable - base.faults_unsurvivable,
            recovery_restarts: self.recovery_restarts - base.recovery_restarts,
            recovery_max_depth: self.recovery_max_depth,
            items_checkpointed: self.items_checkpointed - base.items_checkpointed,
            reused_replicas: self.reused_replicas - base.reused_replicas,
            replication_bytes: self.replication_bytes - base.replication_bytes,
            injections_replacement: self.injections_replacement - base.injections_replacement,
            injections_on_read: self.injections_on_read - base.injections_on_read,
            injections_write_inv_ck: self.injections_write_inv_ck - base.injections_write_inv_ck,
            injections_write_shared_ck: self.injections_write_shared_ck
                - base.injections_write_shared_ck,
            pages_allocated: self.pages_allocated,
            pages_peak: self.pages_peak,
            net_messages: self.net_messages - base.net_messages,
            net_contention_cycles: self.net_contention_cycles - base.net_contention_cycles,
            net_retries: self.net_retries - base.net_retries,
            net_timeouts: self.net_timeouts - base.net_timeouts,
            net_detour_hops: self.net_detour_hops - base.net_detour_hops,
            net_dropped_msgs: self.net_dropped_msgs - base.net_dropped_msgs,
            nodes: self.nodes,
            per_node: self
                .per_node
                .iter()
                .enumerate()
                .map(|(i, n)| match base.per_node.get(i) {
                    Some(b) => n.delta_since(b),
                    None => *n,
                })
                .collect(),
            access_latency: self.access_latency.delta_since(&base.access_latency),
            phases: self.phases.delta_since(&base.phases),
            down_intervals: self.down_intervals.clone(),
        }
    }

    /// Mean time to repair, in cycles (total down time / failure count over
    /// all nodes). 0.0 when no failure occurred.
    pub fn mttr_cycles(&self) -> f64 {
        let (down, count) = self.per_node.iter().fold((0u64, 0u64), |(d, c), n| {
            (d + n.down_cycles, c + n.down_count)
        });
        if count == 0 {
            0.0
        } else {
            down as f64 / count as f64
        }
    }

    /// Fraction of node-cycles the machine's nodes were up:
    /// `1 - Σ down_cycles / (nodes × total_cycles)`. 1.0 for an empty run.
    pub fn availability(&self) -> f64 {
        if self.nodes == 0 || self.total_cycles == 0 {
            return 1.0;
        }
        let down: u64 = self.per_node.iter().map(|n| n.down_cycles).sum();
        1.0 - down as f64 / (self.nodes as f64 * self.total_cycles as f64)
    }

    /// Availability-vs-time curve: the run's timeline split into `buckets`
    /// equal windows, each reporting `(window end, availability within the
    /// window)` computed from the overlap of every down interval with the
    /// window. Empty when the machine has not run (`total_cycles == 0`) or
    /// `buckets == 0`. The long-horizon soak reports use this to show
    /// availability settling around its steady state as fault/repair
    /// cycles accumulate.
    pub fn availability_curve(&self, buckets: usize) -> Vec<(Cycles, f64)> {
        if self.total_cycles == 0 || self.nodes == 0 || buckets == 0 {
            return Vec::new();
        }
        let mut curve = Vec::with_capacity(buckets);
        // Integer bucket edges: the last bucket absorbs the remainder.
        let width = (self.total_cycles / buckets as u64).max(1);
        for k in 0..buckets {
            let from = k as u64 * width;
            if from >= self.total_cycles {
                break;
            }
            let to = if k == buckets - 1 {
                self.total_cycles
            } else {
                ((k as u64 + 1) * width).min(self.total_cycles)
            };
            let mut down = 0u64;
            for intervals in &self.down_intervals {
                for &(s, e) in intervals {
                    down += e.min(to).saturating_sub(s.max(from));
                }
            }
            let node_cycles = self.nodes as f64 * (to - from) as f64;
            curve.push((to, 1.0 - down as f64 / node_cycles));
        }
        curve
    }

    /// Steady-state mean time to repair, in cycles: the mean length of the
    /// *closed* down intervals (failure → recovery end or repair). Unlike
    /// [`RunMetrics::mttr_cycles`] it excludes nodes still down at the end
    /// of the run, whose truncated intervals understate the repair time.
    /// 0.0 when no interval closed before the run ended.
    pub fn steady_mttr_cycles(&self) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for intervals in &self.down_intervals {
            for &(s, e) in intervals {
                // An interval ending exactly at the run's end is the
                // end-of-run force-close of a node that was still down,
                // not a completed repair: exclude it.
                if e == self.total_cycles {
                    continue;
                }
                total += e - s;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        }
    }

    /// Injections triggered by processor writes on recovery copies.
    pub fn injections_on_write(&self) -> u64 {
        self.injections_write_inv_ck + self.injections_write_shared_ck
    }

    /// All runtime injections.
    pub fn injections_total(&self) -> u64 {
        self.injections_replacement + self.injections_on_read + self.injections_on_write()
    }

    /// Events per 10 000 memory references (the paper's unit).
    pub fn per_10k_refs(&self, events: u64) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            events as f64 * 10_000.0 / self.refs as f64
        }
    }

    /// Read miss rate (misses / loads).
    pub fn read_miss_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_misses as f64 / self.reads as f64
        }
    }

    /// Write miss rate (transactions / stores).
    pub fn write_miss_rate(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.write_misses as f64 / self.writes as f64
        }
    }

    /// Mean per-node replication throughput during create phases, in bytes
    /// per simulated second of the 20 MHz KSR1 clock, counting only
    /// physically transferred bytes.
    pub fn replication_throughput_bps(&self) -> f64 {
        if self.t_create == 0 || self.nodes == 0 {
            0.0
        } else {
            let secs = Clock::ksr1().cycles_to_secs(self.t_create);
            self.replication_bytes as f64 / secs / self.nodes as f64
        }
    }

    /// Like [`RunMetrics::replication_throughput_bps`] but counting every
    /// checkpointed item (including re-labelled replicas that moved no
    /// data) — the paper's "effective" throughput that rises to ~30 MB/s
    /// for Barnes.
    pub fn effective_replication_throughput_bps(&self) -> f64 {
        if self.t_create == 0 || self.nodes == 0 {
            0.0
        } else {
            let secs = Clock::ksr1().cycles_to_secs(self.t_create);
            let bytes = self.items_checkpointed as f64 * 128.0;
            bytes / secs / self.nodes as f64
        }
    }

    /// Aggregate (machine-wide) replication throughput in bytes/second.
    pub fn aggregate_replication_throughput_bps(&self) -> f64 {
        self.replication_throughput_bps() * self.nodes as f64
    }

    /// Fraction of checkpointed items that reused an existing replica.
    pub fn replica_reuse_fraction(&self) -> f64 {
        if self.items_checkpointed == 0 {
            0.0
        } else {
            self.reused_replicas as f64 / self.items_checkpointed as f64
        }
    }
}

/// Fig. 3's execution-time decomposition of an ECP run against its paired
/// standard-protocol run (same seed and run length): `T_ft = T_std +
/// T_create + T_commit + T_pollution`, every term a fraction of `T_std`.
///
/// This is the one place the workspace computes the decomposition; the
/// campaign report, the CLI, the figure benches and the examples all read
/// it from here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decomposition {
    /// `T_ft / T_std - 1`.
    pub total_overhead: f64,
    /// `T_create / T_std`.
    pub create: f64,
    /// `T_commit / T_std`.
    pub commit: f64,
    /// `T_pollution / T_std`, the residual `(T_ft - T_std - T_create -
    /// T_commit) / T_std`. It may be slightly negative when the pollution
    /// effect is close to zero: the twins' trajectories differ.
    pub pollution: f64,
}

impl Decomposition {
    /// Decomposes the ECP run `ft` against its standard-protocol twin
    /// `std`.
    pub fn of(ft: &RunMetrics, std: &RunMetrics) -> Self {
        let t_std = std.total_cycles as f64;
        let t_ft = ft.total_cycles as f64;
        let create = ft.t_create as f64;
        let commit = ft.t_commit as f64;
        Decomposition {
            total_overhead: t_ft / t_std - 1.0,
            create: create / t_std,
            commit: commit / t_std,
            pollution: (t_ft - t_std - create - commit) / t_std,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_empty_runs() {
        let m = RunMetrics::default();
        assert_eq!(m.read_miss_rate(), 0.0);
        assert_eq!(m.per_10k_refs(5), 0.0);
        assert_eq!(m.replication_throughput_bps(), 0.0);
    }

    #[test]
    fn injection_totals() {
        let m = RunMetrics {
            injections_replacement: 1,
            injections_on_read: 2,
            injections_write_inv_ck: 3,
            injections_write_shared_ck: 4,
            refs: 20_000,
            ..Default::default()
        };
        assert_eq!(m.injections_on_write(), 7);
        assert_eq!(m.injections_total(), 10);
        // 10 injections over 20k references = 5 per 10k references.
        assert!((m.per_10k_refs(m.injections_total()) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_math() {
        let m = RunMetrics {
            t_create: 20_000_000, // 1 simulated second at 20 MHz
            replication_bytes: 40_000_000,
            items_checkpointed: 312_500 * 2, // 2x the transferred items
            nodes: 2,
            ..Default::default()
        };
        assert!((m.replication_throughput_bps() - 20_000_000.0).abs() < 1.0);
        assert!((m.aggregate_replication_throughput_bps() - 40_000_000.0).abs() < 1.0);
        assert!((m.effective_replication_throughput_bps() - 40_000_000.0).abs() < 1.0);
    }

    #[test]
    fn per_node_delta_subtracts_counters_keeps_gauges() {
        let base = RunMetrics {
            refs: 50,
            per_node: vec![NodeMetrics {
                refs: 50,
                read_misses: 3,
                ckpt_stall_cycles: 100,
                pages_allocated: 7,
                pages_peak: 9,
                ..Default::default()
            }],
            ..Default::default()
        };
        let now = RunMetrics {
            refs: 120,
            per_node: vec![NodeMetrics {
                refs: 120,
                read_misses: 10,
                ckpt_stall_cycles: 250,
                pages_allocated: 8,
                pages_peak: 11,
                ..Default::default()
            }],
            ..Default::default()
        };
        let d = now.delta_since(&base);
        assert_eq!(d.per_node[0].refs, 70);
        assert_eq!(d.per_node[0].read_misses, 7);
        assert_eq!(d.per_node[0].ckpt_stall_cycles, 150);
        // Gauges keep their current values.
        assert_eq!(d.per_node[0].pages_allocated, 8);
        assert_eq!(d.per_node[0].pages_peak, 11);
        assert_eq!(d.per_node[0].misses(), 7);
    }

    #[test]
    fn availability_and_mttr() {
        let m = RunMetrics {
            total_cycles: 1000,
            nodes: 4,
            per_node: vec![
                NodeMetrics {
                    down_cycles: 300,
                    down_count: 2,
                    ..Default::default()
                },
                NodeMetrics {
                    down_cycles: 100,
                    down_count: 1,
                    ..Default::default()
                },
                NodeMetrics::default(),
                NodeMetrics::default(),
            ],
            ..Default::default()
        };
        // 400 down node-cycles out of 4000.
        assert!((m.availability() - 0.9).abs() < 1e-12);
        assert!((m.mttr_cycles() - 400.0 / 3.0).abs() < 1e-9);
        let empty = RunMetrics::default();
        assert_eq!(empty.availability(), 1.0);
        assert_eq!(empty.mttr_cycles(), 0.0);
    }

    #[test]
    fn availability_curve_buckets_the_down_intervals() {
        let m = RunMetrics {
            total_cycles: 1_000,
            nodes: 2,
            per_node: vec![NodeMetrics::default(); 2],
            // Node 0 down for the whole second quarter; node 1 down for a
            // stretch closing exactly at end of run (still down).
            down_intervals: vec![vec![(250, 500)], vec![(900, 1_000)]],
            ..Default::default()
        };
        let curve = m.availability_curve(4);
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[0], (250, 1.0));
        // Bucket [250, 500): node 0 fully down = half the node-cycles.
        assert!((curve[1].1 - 0.5).abs() < 1e-12);
        assert!((curve[2].1 - 1.0).abs() < 1e-12);
        // Bucket [750, 1000): node 1 down for 100 of 2×250 node-cycles.
        assert!((curve[3].1 - 0.8).abs() < 1e-12);
        assert!(RunMetrics::default().availability_curve(4).is_empty());
        // Only the closed interval counts toward the steady-state MTTR.
        assert!((m.steady_mttr_cycles() - 250.0).abs() < 1e-12);
        let none = RunMetrics {
            total_cycles: 1_000,
            down_intervals: vec![vec![(900, 1_000)]],
            ..Default::default()
        };
        assert_eq!(none.steady_mttr_cycles(), 0.0);
    }

    #[test]
    fn phase_delta_and_merge() {
        let mut a = PhaseLatency::default();
        a.dir_lookup.record(10);
        a.replay.record(100);
        let base = a.clone();
        a.dir_lookup.record(20);
        let d = a.delta_since(&base);
        assert_eq!(d.dir_lookup.summary().count, 1);
        assert_eq!(d.replay.summary().count, 0);
        let mut b = PhaseLatency::default();
        b.dir_lookup.record(5);
        b.merge(&a);
        assert_eq!(b.dir_lookup.summary().count, 3);
        assert_eq!(b.replay.summary().count, 1);
        assert_eq!(b.named().len(), 8);
        assert_eq!(b.named()[7].0, "restart");
    }

    #[test]
    fn decomposition_terms_add_up_to_the_total() {
        let std = RunMetrics {
            total_cycles: 1_000_000,
            ..Default::default()
        };
        let ft = RunMetrics {
            total_cycles: 1_234_567,
            t_create: 150_001,
            t_commit: 20_003,
            ..Default::default()
        };
        let d = Decomposition::of(&ft, &std);
        assert!((d.create + d.commit + d.pollution - d.total_overhead).abs() < 1e-12);
        assert_eq!(d.create, 0.150001);
        assert_eq!(d.commit, 0.020003);
        assert!((d.total_overhead - 0.234567).abs() < 1e-12);
        // Identical twins have nothing to decompose.
        let same = Decomposition::of(&std, &std);
        assert_eq!((same.total_overhead, same.pollution), (0.0, 0.0));
    }

    #[test]
    fn reuse_fraction() {
        let m = RunMetrics {
            items_checkpointed: 100,
            reused_replicas: 52,
            ..Default::default()
        };
        assert!((m.replica_reuse_fraction() - 0.52).abs() < 1e-12);
    }
}
