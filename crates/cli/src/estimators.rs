//! Mapping CLI options onto [`SimRankConfig`] values and estimator instances.

use crate::args::Arguments;
use crate::CliError;
use ugraph::UncertainGraph;
use usim_core::{
    BaselineEstimator, DeterministicSimRank, DuEtAlEstimator, SamplerKind, SamplingEstimator,
    SimRankConfig, SimRankEstimator, SpeedupEstimator, TwoPhaseEstimator, WalkDirection,
};

/// Option names shared by every command that takes SimRank parameters; splice
/// these into the command's [`crate::args::ArgSpec`], and call
/// [`reject_unread_options`] once the command knows what answers.
pub const CONFIG_OPTIONS: &[&str] = &[
    "decay",
    "horizon",
    "samples",
    "phase-switch",
    "seed",
    "direction",
    "sampler",
];

/// Builds a [`SimRankConfig`] from the shared CLI options, starting from
/// [`SimRankConfig::default`]: the paper's `c = 0.6`, `n = 5`, `l = 1`, and
/// the served engine's `N = 100` (`--samples 1000` is the paper's
/// setting).
pub fn config_from_args(args: &Arguments) -> Result<SimRankConfig, CliError> {
    let defaults = SimRankConfig::default();
    let decay: f64 = args.parse_option("decay", defaults.decay)?;
    if !(decay > 0.0 && decay < 1.0) {
        return Err(CliError::new(format!(
            "--decay must lie strictly between 0 and 1, got {decay}"
        )));
    }
    let horizon: usize = args.parse_option("horizon", defaults.horizon)?;
    if horizon == 0 {
        return Err(CliError::new("--horizon must be at least 1"));
    }
    let samples: usize = args.parse_option("samples", defaults.num_samples)?;
    if samples == 0 {
        return Err(CliError::new("--samples must be at least 1"));
    }
    let phase_switch: usize = args.parse_option("phase-switch", defaults.phase_switch)?;
    let seed: u64 = args.parse_option("seed", defaults.seed)?;
    let direction = match args.option("direction").unwrap_or("in") {
        "in" => WalkDirection::InNeighbors,
        "out" => WalkDirection::OutNeighbors,
        other => {
            return Err(CliError::new(format!(
                "unknown walk direction {other:?}; expected \"in\" or \"out\""
            )))
        }
    };
    let sampler: SamplerKind = args
        .option("sampler")
        .unwrap_or(SamplerKind::Legacy.as_str())
        .parse()
        .map_err(|message: String| CliError::new(format!("--sampler: {message}")))?;
    Ok(SimRankConfig {
        decay,
        horizon,
        num_samples: samples,
        phase_switch,
        seed,
        direction,
        sampler,
    })
}

/// What answers a command or mode, for the shared options only some
/// estimators read: `--phase-switch` and `--sampler`, and for `er`'s
/// non-SimRank algorithms every shared option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptionReader {
    /// The CSR batch engine (`simrank --batch`, `topk --engine batch`,
    /// `serve`): reads `--sampler`, and always takes `l = 2`.
    Engine,
    /// Every paper estimator family at once (`simrank --compare`, `er` with
    /// SimER among its algorithms):
    /// the SR-TS and SR-SP among them read `--phase-switch`; every family
    /// walks with the legacy per-arc kernel.
    PairEstimators,
    /// One paper estimator family (`simrank` without `--batch` or
    /// `--compare`, `topk-pairs`): reads `--phase-switch` only if it is
    /// SR-TS or SR-SP, and walks with the legacy per-arc kernel.
    Estimator(AlgorithmKind),
    /// The single-source estimator (`topk --engine single-source`): reads
    /// neither.
    SingleSource,
    /// SimDER alone (`er --algorithm simder`): deterministic SimRank on the
    /// skeleton reads `--decay` and `--horizon` and no other shared option.
    Skeleton,
    /// EIF or DISTINCT alone (`er --algorithm eif|distinct`): reads none of
    /// the shared options.
    NoSimRank,
}

/// Where `--sampler` is read, for the estimators that ignore it.
const SAMPLER_READERS: &str =
    "only the CSR batch engine (simrank --batch, topk --engine batch, serve) reads --sampler";

/// Where `--phase-switch` is read, for the estimator families that ignore it.
const PHASE_SWITCH_READERS: &str =
    "only SR-TS and SR-SP (--algorithm two-phase or speedup) read --phase-switch";

/// Rejects `--phase-switch` or `--sampler` when `reader` would ignore it,
/// so a command accepts only the options it reads.
pub fn reject_unread_options(args: &Arguments, reader: OptionReader) -> Result<(), CliError> {
    let unread: &[(&str, &str)] = match reader {
        OptionReader::Engine => &[(
            "phase-switch",
            "the CSR batch engine always computes m(1) and m(2) exactly (SR-TS with l = 2)",
        )],
        OptionReader::PairEstimators
        | OptionReader::Estimator(AlgorithmKind::TwoPhase | AlgorithmKind::Speedup) => {
            &[("sampler", SAMPLER_READERS)]
        }
        OptionReader::Estimator(_) => &[
            ("phase-switch", PHASE_SWITCH_READERS),
            ("sampler", SAMPLER_READERS),
        ],
        OptionReader::SingleSource => &[
            (
                "phase-switch",
                "the single-source estimator has no exact phase",
            ),
            ("sampler", SAMPLER_READERS),
        ],
        OptionReader::Skeleton => {
            const WHY: &str = "SimDER computes SimRank on the skeleton from --decay and \
                               --horizon only";
            &[
                ("samples", WHY),
                ("phase-switch", WHY),
                ("seed", WHY),
                ("direction", WHY),
                ("sampler", WHY),
            ]
        }
        OptionReader::NoSimRank => {
            const WHY: &str = "EIF and DISTINCT score records by shared neighbours and \
                               compute no SimRank";
            &[
                ("decay", WHY),
                ("horizon", WHY),
                ("samples", WHY),
                ("phase-switch", WHY),
                ("seed", WHY),
                ("direction", WHY),
                ("sampler", WHY),
            ]
        }
    };
    for &(name, why) in unread {
        if let Some(value) = args.option(name) {
            return Err(CliError::new(format!(
                "{why}; --{name} {value:?} cannot be combined with it"
            )));
        }
    }
    Ok(())
}

/// The estimator families the CLI can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmKind {
    /// Exact Baseline (Section VI-A).
    Baseline,
    /// Monte-Carlo Sampling (Section VI-B).
    Sampling,
    /// Two-phase SR-TS (Section VI-C).
    TwoPhase,
    /// Bit-vector SR-SP (Section VI-D).
    Speedup,
    /// Du et al.'s prior-work estimator (SimRank-III).
    DuEtAl,
    /// Classic SimRank on the skeleton, ignoring uncertainty (SimRank-II).
    Deterministic,
}

impl AlgorithmKind {
    /// Parses the `--algorithm` value.
    pub fn parse(name: &str) -> Result<Self, CliError> {
        match name.to_ascii_lowercase().as_str() {
            "baseline" => Ok(AlgorithmKind::Baseline),
            "sampling" => Ok(AlgorithmKind::Sampling),
            "two-phase" | "twophase" | "sr-ts" | "srts" => Ok(AlgorithmKind::TwoPhase),
            "speedup" | "sr-sp" | "srsp" => Ok(AlgorithmKind::Speedup),
            "du" | "du-et-al" | "simrank-iii" => Ok(AlgorithmKind::DuEtAl),
            "deterministic" | "simrank-ii" => Ok(AlgorithmKind::Deterministic),
            other => Err(CliError::new(format!(
                "unknown algorithm {other:?}; expected one of baseline, sampling, two-phase, \
                 speedup, du, deterministic"
            ))),
        }
    }

    /// All algorithm families, in the order the comparison table prints them.
    pub fn all() -> [AlgorithmKind; 6] {
        [
            AlgorithmKind::Baseline,
            AlgorithmKind::Sampling,
            AlgorithmKind::TwoPhase,
            AlgorithmKind::Speedup,
            AlgorithmKind::DuEtAl,
            AlgorithmKind::Deterministic,
        ]
    }

    /// The display name used in CLI output.
    pub fn display_name(self) -> &'static str {
        match self {
            AlgorithmKind::Baseline => "Baseline",
            AlgorithmKind::Sampling => "Sampling",
            AlgorithmKind::TwoPhase => "SR-TS",
            AlgorithmKind::Speedup => "SR-SP",
            AlgorithmKind::DuEtAl => "SimRank-III (Du et al.)",
            AlgorithmKind::Deterministic => "SimRank-II (no uncertainty)",
        }
    }

    /// Instantiates an estimator of this family for `graph` under `config`.
    pub fn build(self, graph: &UncertainGraph, config: SimRankConfig) -> Box<dyn SimRankEstimator> {
        match self {
            AlgorithmKind::Baseline => Box::new(BaselineEstimator::new(graph, config)),
            AlgorithmKind::Sampling => Box::new(SamplingEstimator::new(graph, config)),
            AlgorithmKind::TwoPhase => Box::new(TwoPhaseEstimator::new(graph, config)),
            AlgorithmKind::Speedup => Box::new(SpeedupEstimator::new(graph, config)),
            AlgorithmKind::DuEtAl => Box::new(DuEtAlEstimator::new(graph, config)),
            AlgorithmKind::Deterministic => Box::new(DeterministicSimRank::new(
                graph.skeleton(),
                config.decay,
                config.horizon,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{ArgSpec, Arguments};
    use ugraph::UncertainGraphBuilder;

    fn parse(tokens: &[&str]) -> Arguments {
        let owned: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Arguments::parse(
            &owned,
            &ArgSpec {
                options: CONFIG_OPTIONS,
                switches: &[],
            },
        )
        .unwrap()
    }

    fn small_graph() -> ugraph::UncertainGraph {
        UncertainGraphBuilder::new(3)
            .arc(2, 0, 0.9)
            .arc(2, 1, 0.8)
            .arc(0, 2, 0.7)
            .build()
            .unwrap()
    }

    #[test]
    fn defaults_match_the_paper_and_overrides_apply() {
        let config = config_from_args(&parse(&[])).unwrap();
        assert_eq!(config, SimRankConfig::default());
        let config = config_from_args(&parse(&[
            "--decay",
            "0.8",
            "--horizon",
            "7",
            "--samples",
            "50",
            "--phase-switch",
            "2",
            "--seed",
            "11",
            "--direction",
            "out",
            "--sampler",
            "alias",
        ]))
        .unwrap();
        assert_eq!(config.decay, 0.8);
        assert_eq!(config.horizon, 7);
        assert_eq!(config.num_samples, 50);
        assert_eq!(config.phase_switch, 2);
        assert_eq!(config.seed, 11);
        assert_eq!(config.direction, WalkDirection::OutNeighbors);
        assert_eq!(config.sampler, SamplerKind::Alias);
    }

    #[test]
    fn invalid_config_values_are_rejected() {
        assert!(config_from_args(&parse(&["--decay", "1.5"])).is_err());
        assert!(config_from_args(&parse(&["--horizon", "0"])).is_err());
        assert!(config_from_args(&parse(&["--samples", "0"])).is_err());
        assert!(config_from_args(&parse(&["--direction", "sideways"])).is_err());
        assert!(config_from_args(&parse(&["--sampler", "vose"])).is_err());
    }

    #[test]
    fn algorithm_names_parse_including_aliases() {
        assert_eq!(
            AlgorithmKind::parse("baseline").unwrap(),
            AlgorithmKind::Baseline
        );
        assert_eq!(
            AlgorithmKind::parse("SR-SP").unwrap(),
            AlgorithmKind::Speedup
        );
        assert_eq!(
            AlgorithmKind::parse("two-phase").unwrap(),
            AlgorithmKind::TwoPhase
        );
        assert_eq!(AlgorithmKind::parse("du").unwrap(), AlgorithmKind::DuEtAl);
        assert_eq!(
            AlgorithmKind::parse("deterministic").unwrap(),
            AlgorithmKind::Deterministic
        );
        assert!(AlgorithmKind::parse("pagerank").is_err());
        assert_eq!(AlgorithmKind::all().len(), 6);
    }

    #[test]
    fn every_algorithm_family_builds_and_answers_queries() {
        let graph = small_graph();
        let config = SimRankConfig::default().with_samples(100).with_seed(1);
        for kind in AlgorithmKind::all() {
            let mut estimator = kind.build(&graph, config);
            let score = estimator.similarity(0, 1);
            assert!(
                (0.0..=1.0 + 1e-9).contains(&score),
                "{}: s(0,1) = {score}",
                kind.display_name()
            );
        }
    }

    #[test]
    fn each_reader_rejects_exactly_the_options_it_ignores() {
        let mut cases = vec![
            (OptionReader::Engine, "phase-switch", false),
            (OptionReader::Engine, "sampler", true),
            (OptionReader::PairEstimators, "phase-switch", true),
            (OptionReader::PairEstimators, "sampler", false),
            (OptionReader::SingleSource, "phase-switch", false),
            (OptionReader::SingleSource, "sampler", false),
        ];
        for kind in AlgorithmKind::all() {
            let reads = matches!(kind, AlgorithmKind::TwoPhase | AlgorithmKind::Speedup);
            cases.push((OptionReader::Estimator(kind), "phase-switch", reads));
            cases.push((OptionReader::Estimator(kind), "sampler", false));
        }
        for (reader, name, reads) in cases {
            let value = if name == "sampler" { "alias" } else { "2" };
            let flag = format!("--{name}");
            let args = parse(&[&flag, value]);
            assert!(config_from_args(&args).is_ok());
            match reject_unread_options(&args, reader) {
                Ok(()) => assert!(reads, "{reader:?} must reject {flag}"),
                Err(err) => {
                    assert!(!reads, "{reader:?} reads {flag}: {err}");
                    assert!(err.to_string().contains(&flag), "{err}");
                    assert!(err.to_string().contains("cannot be combined"), "{err}");
                }
            }
            // Without the option every reader accepts the arguments.
            assert!(reject_unread_options(&parse(&["--seed", "3"]), reader).is_ok());
        }
    }
}
