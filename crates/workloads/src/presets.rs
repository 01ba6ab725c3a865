//! Workload configurations and the four SPLASH-like presets.
//!
//! The numeric mixes come from Table 3 of the paper (fractions of all
//! instructions); working-set sizes are scaled down proportionally so that
//! scaled runs of 10⁵–10⁶ references per node exercise the same relative
//! pressure (Mp3d's working set stays ≈9× Barnes'; see DESIGN.md §4).

/// Qualitative sharing behaviour of an application's shared data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SharingStyle {
    /// Mostly-read shared structures (Barnes-Hut's tree): reads spread over
    /// the whole shared set with strong popularity skew; each node writes
    /// only its own small slice.
    MostlyRead,
    /// Migratory records (Mp3d's molecules): a node picks an object and
    /// performs a read-modify burst on it before moving on, so objects
    /// migrate from writer to writer.
    Migratory {
        /// Consecutive accesses to an object before moving on (min, max).
        burst: (u32, u32),
        /// Object size in 128-byte items.
        object_items: u32,
    },

    /// Blocked panel reuse (Cholesky): reads hit popularity-skewed panels,
    /// writes update the node's own panel range.
    Blocked {
        /// Panel size in pages.
        panel_pages: u32,
    },
    /// Spatial partition with neighbour exchange (Water): most accesses in
    /// the node's own partition, boundary reads in the ring neighbours'.
    NeighborExchange {
        /// Probability that a shared access stays in the local partition.
        local_prob: f64,
    },
    /// Micro-benchmark: uniformly random shared accesses — the worst case
    /// for any locality-exploiting mechanism, used for stress testing.
    Uniform,
    /// Micro-benchmark: a small globally hot set absorbs most shared
    /// accesses — maximal coherence contention on few items.
    HotSpot {
        /// Size of the hot set in items.
        hot_items: u32,
        /// Probability a shared access targets the hot set.
        hot_prob: f64,
    },
    /// Micro-benchmark: each node writes its own slice and reads its ring
    /// predecessor's — a software pipeline, all shared data migratory
    /// between exactly two nodes.
    ProducerConsumer,
}

/// Configuration of one synthetic application.
///
/// Fractions are of *all instructions*, exactly as Table 3 reports them;
/// `read_frac` includes `shared_read_frac` (likewise for writes).
///
/// # Example
///
/// ```
/// use ftcoma_workloads::presets;
///
/// let mp3d = presets::mp3d();
/// assert!(mp3d.shared_write_frac > presets::water().shared_write_frac);
/// mp3d.validate();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SplashConfig {
    /// Application name, as printed in tables.
    pub name: String,
    /// Instruction count of the real run, in millions (Table 3) — used to
    /// keep the relative run lengths of the four applications.
    pub instr_millions: f64,
    /// Fraction of instructions that are loads.
    pub read_frac: f64,
    /// Fraction of instructions that are stores.
    pub write_frac: f64,
    /// Fraction of instructions that are loads of *shared* data.
    pub shared_read_frac: f64,
    /// Fraction of instructions that are stores to *shared* data.
    pub shared_write_frac: f64,
    /// Size of the shared region in 16 KB pages.
    pub shared_pages: u64,
    /// Per-node private region size in 16 KB pages.
    pub private_pages_per_node: u64,
    /// Zipf exponent for shared-read popularity.
    pub zipf_theta: f64,
    /// Probability that a private *read* stays near the write window
    /// (the remainder spreads uniformly over the private region).
    pub private_hot_prob: f64,
    /// Width of the private write window in items. Stores cluster in a
    /// small sliding window (stack frames, per-body records), which is
    /// what bounds the recovery data produced per checkpoint interval.
    pub write_window_items: u32,
    /// Writes between one-item advances of the write window: larger means
    /// stronger locality and fewer distinct items modified per interval.
    pub write_drift_period: u32,
    /// Sharing behaviour.
    pub style: SharingStyle,
    /// Global barrier every N references per node (`None` = no barriers).
    /// SPLASH applications are iterative, barrier-synchronised programs;
    /// enable this to model the phase structure.
    pub barrier_interval_refs: Option<u64>,
}

impl SplashConfig {
    /// Fraction of instructions that reference memory.
    pub fn mem_frac(&self) -> f64 {
        self.read_frac + self.write_frac
    }

    /// Checks configuration consistency.
    ///
    /// # Panics
    ///
    /// Panics if fractions are out of range or inconsistent (e.g. shared
    /// fractions exceeding their totals), or regions are empty.
    pub fn validate(&self) {
        let in01 = |x: f64| (0.0..=1.0).contains(&x);
        assert!(
            in01(self.read_frac) && in01(self.write_frac),
            "fractions must be in [0,1]"
        );
        assert!(
            self.shared_read_frac <= self.read_frac && self.shared_write_frac <= self.write_frac,
            "shared fractions cannot exceed totals"
        );
        assert!(
            self.mem_frac() > 0.0 && self.mem_frac() < 1.0,
            "memory fraction must be in (0,1)"
        );
        assert!(self.shared_pages > 0, "shared region must be non-empty");
        assert!(
            self.private_pages_per_node > 0,
            "private region must be non-empty"
        );
        assert!(
            in01(self.private_hot_prob),
            "hot probability must be in [0,1]"
        );
        assert!(
            self.write_window_items >= 1,
            "write window must be non-empty"
        );
        assert!(
            self.write_drift_period >= 1,
            "drift period must be positive"
        );
        if let SharingStyle::Migratory {
            burst: (lo, hi),
            object_items,
        } = self.style
        {
            assert!(lo >= 1 && hi >= lo, "burst range must be non-empty");
            assert!(object_items >= 1);
        }
        if let SharingStyle::Blocked { panel_pages } = self.style {
            assert!(
                u64::from(panel_pages) <= self.shared_pages,
                "panel larger than shared set"
            );
        }
        if let SharingStyle::NeighborExchange { local_prob } = self.style {
            assert!(in01(local_prob));
        }
        if let SharingStyle::HotSpot {
            hot_items,
            hot_prob,
        } = self.style
        {
            assert!(hot_items >= 1, "hot set must be non-empty");
            assert!(in01(hot_prob));
        }
    }

    /// Adds a global barrier every `refs` references per node.
    ///
    /// # Panics
    ///
    /// Panics if `refs == 0`.
    pub fn with_barriers(mut self, refs: u64) -> Self {
        assert!(refs > 0, "barrier interval must be positive");
        self.barrier_interval_refs = Some(refs);
        self
    }
}

/// Barnes-Hut: 190 M instructions; 18.4 % reads / 10.7 % writes;
/// 4.2 % / 0.1 % shared; small mostly-read working set.
pub fn barnes() -> SplashConfig {
    SplashConfig {
        name: "Barnes".into(),
        instr_millions: 190.0,
        read_frac: 0.184,
        write_frac: 0.107,
        shared_read_frac: 0.042,
        shared_write_frac: 0.001,
        shared_pages: 4,
        private_pages_per_node: 3,
        zipf_theta: 0.9,
        private_hot_prob: 0.9,
        write_window_items: 4,
        write_drift_period: 384,
        style: SharingStyle::MostlyRead,
        barrier_interval_refs: None,
    }
}

/// Cholesky (bcsstk14): 53.1 M instructions; 23.3 % / 6.2 %;
/// 18.8 % / 3.3 % shared; large blocked working set.
pub fn cholesky() -> SplashConfig {
    SplashConfig {
        name: "Cholesky".into(),
        instr_millions: 53.1,
        read_frac: 0.233,
        write_frac: 0.062,
        shared_read_frac: 0.188,
        shared_write_frac: 0.033,
        shared_pages: 24,
        private_pages_per_node: 4,
        zipf_theta: 0.6,
        private_hot_prob: 0.85,
        write_window_items: 6,
        write_drift_period: 128,
        style: SharingStyle::Blocked { panel_pages: 4 },
        barrier_interval_refs: None,
    }
}

/// Mp3d (50 K molecules): 48.3 M instructions; 16.3 % / 9.7 %;
/// 13.1 % / 8.3 % shared; migratory molecules, working set ≈9× Barnes.
pub fn mp3d() -> SplashConfig {
    SplashConfig {
        name: "Mp3d".into(),
        instr_millions: 48.3,
        read_frac: 0.163,
        write_frac: 0.097,
        shared_read_frac: 0.131,
        shared_write_frac: 0.083,
        shared_pages: 36,
        private_pages_per_node: 3,
        zipf_theta: 0.2,
        private_hot_prob: 0.9,
        write_window_items: 6,
        write_drift_period: 256,
        style: SharingStyle::Migratory {
            burst: (64, 192),
            object_items: 1,
        },
        barrier_interval_refs: None,
    }
}

/// Water (120/144 molecules): 78.6 M instructions; 23.7 % / 6.9 %;
/// 4.3 % / 0.5 % shared; partitioned with neighbour exchange.
pub fn water() -> SplashConfig {
    SplashConfig {
        name: "Water".into(),
        instr_millions: 78.6,
        read_frac: 0.237,
        write_frac: 0.069,
        shared_read_frac: 0.043,
        shared_write_frac: 0.005,
        shared_pages: 8,
        private_pages_per_node: 3,
        zipf_theta: 0.5,
        private_hot_prob: 0.9,
        write_window_items: 4,
        write_drift_period: 384,
        style: SharingStyle::NeighborExchange { local_prob: 0.85 },
        barrier_interval_refs: None,
    }
}

/// The four presets in the paper's order.
pub fn all() -> Vec<SplashConfig> {
    vec![barnes(), cholesky(), mp3d(), water()]
}

fn micro_base(name: &str, style: SharingStyle) -> SplashConfig {
    SplashConfig {
        name: name.into(),
        instr_millions: 1.0,
        read_frac: 0.20,
        write_frac: 0.10,
        shared_read_frac: 0.15,
        shared_write_frac: 0.06,
        shared_pages: 16,
        private_pages_per_node: 2,
        zipf_theta: 0.0,
        private_hot_prob: 0.9,
        write_window_items: 4,
        write_drift_period: 128,
        style,
        barrier_interval_refs: None,
    }
}

/// Micro-benchmark: uniformly random shared accesses (locality worst case).
pub fn micro_uniform() -> SplashConfig {
    micro_base("uniform", SharingStyle::Uniform)
}

/// Micro-benchmark: contention on a small global hot set.
pub fn micro_hotspot() -> SplashConfig {
    micro_base(
        "hotspot",
        SharingStyle::HotSpot {
            hot_items: 32,
            hot_prob: 0.8,
        },
    )
}

/// Micro-benchmark: producer/consumer pipeline around the ring.
pub fn micro_producer_consumer() -> SplashConfig {
    micro_base("prodcons", SharingStyle::ProducerConsumer)
}

/// The micro-benchmark presets (stress tests beyond the paper's four
/// applications).
pub fn micros() -> Vec<SplashConfig> {
    vec![micro_uniform(), micro_hotspot(), micro_producer_consumer()]
}

/// The paper or micro-benchmark preset called `name`, ignoring ASCII case
/// (`mp3d` finds `Mp3d`): the one name lookup the CLI, campaign specs and
/// chaos artifacts share.
pub fn by_name(name: &str) -> Option<SplashConfig> {
    all()
        .into_iter()
        .chain(micros())
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_found_by_name_in_any_case() {
        assert_eq!(by_name("mp3d"), Some(mp3d()));
        assert_eq!(by_name("WATER"), Some(water()));
        assert_eq!(by_name("prodcons"), Some(micro_producer_consumer()));
        assert_eq!(by_name("ocean"), None);
    }

    #[test]
    fn presets_validate() {
        for cfg in all() {
            cfg.validate();
        }
        for cfg in micros() {
            cfg.validate();
        }
    }

    #[test]
    #[should_panic(expected = "hot set")]
    fn hotspot_requires_nonempty_hot_set() {
        let mut cfg = micro_hotspot();
        cfg.style = SharingStyle::HotSpot {
            hot_items: 0,
            hot_prob: 0.5,
        };
        cfg.validate();
    }

    #[test]
    fn table3_mixes() {
        let b = barnes();
        assert!((b.mem_frac() - 0.291).abs() < 1e-9);
        let m = mp3d();
        // Mp3d has the highest shared-write rate of the four.
        for other in [barnes(), cholesky(), water()] {
            assert!(m.shared_write_frac > other.shared_write_frac);
        }
    }

    #[test]
    fn mp3d_working_set_is_9x_barnes() {
        assert_eq!(mp3d().shared_pages, 9 * barnes().shared_pages);
    }

    #[test]
    #[should_panic(expected = "shared fractions")]
    fn validate_rejects_inconsistent_shared_fraction() {
        let mut cfg = barnes();
        cfg.shared_read_frac = cfg.read_frac + 0.01;
        cfg.validate();
    }
}
