//! Configuration shared by the SimRank estimators.

/// Direction of the random walks underlying the SimRank measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum WalkDirection {
    /// Walks follow arcs backwards (step to in-neighbors).  This matches the
    /// recursive SimRank definition ("two vertices are similar if their
    /// in-neighbors are similar") and makes Theorem 3 hold against classic
    /// SimRank; it is the default.
    #[default]
    InNeighbors,
    /// Walks follow arcs forwards (step to out-neighbors), i.e. Sections
    /// III–IV of the paper applied verbatim to the input graph.  Equivalent
    /// to `InNeighbors` on the transposed graph.
    OutNeighbors,
}

/// The per-step transition backend of the walk-based engines.
///
/// The two backends are *versioned, pluggable samplers*, not interchangeable
/// implementations of one distribution: answers from different kinds are
/// never comparable bit-for-bit, so the kind is fixed per engine (and so
/// per result cache, which belongs to one engine) and is surfaced by the
/// serve banner and the `stats` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum SamplerKind {
    /// The lazily-instantiated arena sampler (Fig. 4 of the paper): one
    /// uniform draw per possible out-arc on first visit, instantiations
    /// memoized within a walk.  Keeps today's RNG draw order bit-for-bit —
    /// every pre-existing baseline and equivalence test pins this backend —
    /// and is the default.
    #[default]
    Legacy,
    /// Walker alias rows over the exact expected one-step marginals (death
    /// mass included): one draw and one 16-byte slot read per step,
    /// independent of degree.  Nothing is built at construction: each row
    /// of the walked direction is built on its first read from the row's
    /// cached marginals (the ones exact `m(1)` reads), and the other
    /// direction's never are.  Trades the within-walk possible-world
    /// correlation of `Legacy` for raw walk speed; exact for horizons ≤ 2
    /// and on certain graphs.
    Alias,
}

impl SamplerKind {
    /// The CLI / banner / stats-frame name of the backend.
    pub fn as_str(&self) -> &'static str {
        match self {
            SamplerKind::Legacy => "legacy",
            SamplerKind::Alias => "alias",
        }
    }
}

impl std::fmt::Display for SamplerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SamplerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "legacy" => Ok(SamplerKind::Legacy),
            "alias" => Ok(SamplerKind::Alias),
            other => Err(format!(
                "unknown sampler kind '{other}' (expected 'legacy' or 'alias')"
            )),
        }
    }
}

/// Parameters of the SimRank measure and its estimators.
///
/// Field defaults follow the paper's experimental setting (Section VII-A),
/// `c = 0.6`, `n = 5`, phase switch `l = 1`, except for `N`: it is 100, not
/// the paper's 1000.  `N` is sized for the served `QueryEngine`, whose exact
/// `m(1)` and `m(2)` and all-pairs walk estimate beat Eq. 13 at `N = 1000`
/// with a tenth of the walks (`tests/accuracy.rs` gates that).  The paper's
/// reproductions set `with_samples(1000)` explicitly.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimRankConfig {
    /// The decay factor `c ∈ (0, 1)` of SimRank.
    pub decay: f64,
    /// The number of iterations / walk horizon `n`; the returned value is the
    /// `n`-th SimRank `s⁽ⁿ⁾`, which differs from the limit by at most
    /// `c^{n+1}` (Theorem 2).
    pub horizon: usize,
    /// The number of sampled walk pairs `N` used by the sampling-based
    /// estimators (Lemma 4 relates `N` to the additive error).  The query
    /// engine samples `N` walks per endpoint too, but compares all `N²`
    /// pairs of them.
    pub num_samples: usize,
    /// The phase-switch step `l` of the two-phase algorithm: meeting
    /// probabilities for `k ≤ l` are computed exactly, the rest are sampled.
    /// The paper's estimators honour it; the query engine always takes
    /// `l = 2`.
    pub phase_switch: usize,
    /// Seed of the estimators' internal random number generators; two
    /// estimators built with the same seed produce identical estimates.
    pub seed: u64,
    /// Walk direction (see [`WalkDirection`]).
    pub direction: WalkDirection,
    /// The per-step transition backend (see [`SamplerKind`]).
    pub sampler: SamplerKind,
}

impl Default for SimRankConfig {
    fn default() -> Self {
        SimRankConfig {
            decay: 0.6,
            horizon: 5,
            num_samples: 100,
            phase_switch: 1,
            seed: 0x5eed_cafe,
            direction: WalkDirection::InNeighbors,
            sampler: SamplerKind::Legacy,
        }
    }
}

impl SimRankConfig {
    /// Sets the decay factor `c`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < c < 1`.
    pub fn with_decay(mut self, c: f64) -> Self {
        assert!(
            c > 0.0 && c < 1.0,
            "the decay factor must lie in (0, 1), got {c}"
        );
        self.decay = c;
        self
    }

    /// Sets the horizon `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    pub fn with_horizon(mut self, n: usize) -> Self {
        assert!(n >= 1, "the horizon must be at least 1");
        self.horizon = n;
        self
    }

    /// Sets the number of sampled walk pairs `N`.
    ///
    /// # Panics
    ///
    /// Panics if `N` is 0.
    pub fn with_samples(mut self, n: usize) -> Self {
        assert!(n >= 1, "the number of samples must be at least 1");
        self.num_samples = n;
        self
    }

    /// Sets the phase-switch step `l` (clamped to the horizon when larger).
    pub fn with_phase_switch(mut self, l: usize) -> Self {
        self.phase_switch = l;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the walk direction.
    pub fn with_direction(mut self, direction: WalkDirection) -> Self {
        self.direction = direction;
        self
    }

    /// Sets the per-step transition backend.
    pub fn with_sampler(mut self, sampler: SamplerKind) -> Self {
        self.sampler = sampler;
        self
    }

    /// The phase switch actually used: `min(l, n)`.
    pub fn effective_phase_switch(&self) -> usize {
        self.phase_switch.min(self.horizon)
    }

    /// Validates the configuration, panicking with a clear message on
    /// inconsistent values.  Called by the estimator constructors.
    pub fn validate(&self) {
        assert!(
            self.decay > 0.0 && self.decay < 1.0,
            "the decay factor must lie in (0, 1), got {}",
            self.decay
        );
        assert!(self.horizon >= 1, "the horizon must be at least 1");
        assert!(
            self.num_samples >= 1,
            "the number of samples must be at least 1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SimRankConfig::default();
        assert_eq!(c.decay, 0.6);
        assert_eq!(c.horizon, 5);
        assert_eq!(c.num_samples, 100);
        assert_eq!(c.phase_switch, 1);
        assert_eq!(c.direction, WalkDirection::InNeighbors);
        assert_eq!(c.sampler, SamplerKind::Legacy);
        c.validate();
    }

    #[test]
    fn builder_methods_chain() {
        let c = SimRankConfig::default()
            .with_decay(0.8)
            .with_horizon(7)
            .with_samples(50)
            .with_phase_switch(3)
            .with_seed(99)
            .with_direction(WalkDirection::OutNeighbors)
            .with_sampler(SamplerKind::Alias);
        assert_eq!(c.decay, 0.8);
        assert_eq!(c.horizon, 7);
        assert_eq!(c.num_samples, 50);
        assert_eq!(c.phase_switch, 3);
        assert_eq!(c.seed, 99);
        assert_eq!(c.direction, WalkDirection::OutNeighbors);
        assert_eq!(c.sampler, SamplerKind::Alias);
    }

    #[test]
    fn effective_phase_switch_is_clamped() {
        let c = SimRankConfig::default()
            .with_horizon(3)
            .with_phase_switch(10);
        assert_eq!(c.effective_phase_switch(), 3);
        let c = SimRankConfig::default().with_phase_switch(2);
        assert_eq!(c.effective_phase_switch(), 2);
    }

    #[test]
    fn serde_roundtrip_preserves_every_field() {
        // Configurations are serialisable so experiment manifests and result
        // archives can record exactly which parameters produced a number.
        let config = SimRankConfig::default()
            .with_decay(0.75)
            .with_horizon(6)
            .with_samples(123)
            .with_phase_switch(2)
            .with_seed(99)
            .with_direction(WalkDirection::OutNeighbors)
            .with_sampler(SamplerKind::Alias);
        let json = serde_json::to_string(&config).unwrap();
        assert!(json.contains("\"decay\":0.75"));
        assert!(json.contains("OutNeighbors"));
        assert!(json.contains("Alias"));
        let restored: SimRankConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, config);
    }

    #[test]
    fn sampler_kind_names_roundtrip() {
        for kind in [SamplerKind::Legacy, SamplerKind::Alias] {
            assert_eq!(kind.as_str().parse::<SamplerKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!("vose".parse::<SamplerKind>().is_err());
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn rejects_bad_decay() {
        let _ = SimRankConfig::default().with_decay(1.0);
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn rejects_zero_horizon() {
        let _ = SimRankConfig::default().with_horizon(0);
    }

    #[test]
    #[should_panic(expected = "samples")]
    fn rejects_zero_samples() {
        let _ = SimRankConfig::default().with_samples(0);
    }
}
