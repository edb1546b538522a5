//! Named dataset configurations mirroring Table II of the paper.
//!
//! Each entry records the published vertex/edge counts and which generator we
//! use as the stand-in.  Two registries are provided: [`paper_registry`]
//! (full published sizes — generating the largest entries takes minutes and
//! plenty of memory) and [`ci_registry`] (each dataset scaled down so the
//! whole experiment suite finishes on a laptop; the per-dataset scaling
//! factors are the divisors in [`ci_registry`]'s own entries, and the
//! `table2_datasets` bin prints each generated size next to the published
//! one).

use crate::coauthor::CoauthorGenerator;
use crate::ppi::PpiGenerator;
use crate::rmat::RmatGenerator;
use ugraph::UncertainGraph;

/// Which generator family a dataset uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeneratorKind {
    /// Planted-complex PPI generator.
    Ppi,
    /// Preferential-attachment co-authorship generator.
    Coauthor,
    /// R-MAT generator.
    Rmat,
}

/// A named dataset configuration.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as used in the paper ("PPI1", "Condmat", "DBLP", …).
    pub name: &'static str,
    /// Vertex count of this configuration.
    pub num_vertices: usize,
    /// Approximate target edge count of this configuration.
    pub num_edges: usize,
    /// Vertex count reported in Table II of the paper (for the report).
    pub paper_vertices: usize,
    /// Edge count reported in Table II of the paper.
    pub paper_edges: usize,
    /// Which generator produces the stand-in.
    pub generator: GeneratorKind,
    /// Seed used for generation.
    pub seed: u64,
}

impl DatasetSpec {
    /// Generates the uncertain graph for this specification.
    pub fn generate(&self) -> UncertainGraph {
        match self.generator {
            GeneratorKind::Ppi => {
                let average_degree = (self.num_edges / self.num_vertices.max(1)).max(2);
                PpiGenerator {
                    num_proteins: self.num_vertices,
                    num_complexes: (self.num_vertices / 15).max(4),
                    complex_size: (3, 8),
                    intra_complex_density: (average_degree as f64 / 8.0).clamp(0.3, 0.95),
                    noise_edges: self.num_edges / 2,
                    seed: self.seed,
                    ..Default::default()
                }
                .generate()
                .graph
            }
            GeneratorKind::Coauthor => {
                let per_author = (self.num_edges / (2 * self.num_vertices.max(1))).max(1);
                CoauthorGenerator {
                    num_authors: self.num_vertices,
                    edges_per_author: per_author,
                    seed: self.seed,
                    ..Default::default()
                }
                .generate()
            }
            GeneratorKind::Rmat => {
                let scale = (self.num_vertices.max(2) as f64).log2().ceil() as u32;
                RmatGenerator {
                    scale,
                    num_edges: self.num_edges,
                    seed: self.seed,
                    ..Default::default()
                }
                .generate()
            }
        }
    }
}

/// The datasets of Table II at their published sizes.
pub fn paper_registry() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "PPI1",
            num_vertices: 2708,
            num_edges: 7123,
            paper_vertices: 2708,
            paper_edges: 7123,
            generator: GeneratorKind::Ppi,
            seed: 101,
        },
        DatasetSpec {
            name: "PPI2",
            num_vertices: 2369,
            num_edges: 249_080,
            paper_vertices: 2369,
            paper_edges: 249_080,
            generator: GeneratorKind::Ppi,
            seed: 102,
        },
        DatasetSpec {
            name: "PPI3",
            num_vertices: 19_247,
            num_edges: 17_096_006,
            paper_vertices: 19_247,
            paper_edges: 17_096_006,
            generator: GeneratorKind::Ppi,
            seed: 103,
        },
        DatasetSpec {
            name: "Condmat",
            num_vertices: 31_163,
            num_edges: 240_058,
            paper_vertices: 31_163,
            paper_edges: 240_058,
            generator: GeneratorKind::Coauthor,
            seed: 104,
        },
        DatasetSpec {
            name: "Net",
            num_vertices: 1588,
            num_edges: 5484,
            paper_vertices: 1588,
            paper_edges: 5484,
            generator: GeneratorKind::Coauthor,
            seed: 105,
        },
        DatasetSpec {
            name: "DBLP",
            num_vertices: 1_560_640,
            num_edges: 8_517_894,
            paper_vertices: 1_560_640,
            paper_edges: 8_517_894,
            generator: GeneratorKind::Coauthor,
            seed: 106,
        },
    ]
}

/// The same datasets scaled down (vertices and edges divided by roughly 10 to
/// 100 for the largest entries) so that the full experiment harness completes
/// quickly; the published sizes remain available in each entry's
/// `paper_vertices` / `paper_edges` fields for reporting.
pub fn ci_registry() -> Vec<DatasetSpec> {
    paper_registry()
        .into_iter()
        .map(|mut spec| {
            let (v, e) = match spec.name {
                "PPI1" => (spec.num_vertices, spec.num_edges),
                "PPI2" => (spec.num_vertices, spec.num_edges / 4),
                "PPI3" => (spec.num_vertices / 4, spec.num_edges / 100),
                "Condmat" => (spec.num_vertices / 4, spec.num_edges / 4),
                "Net" => (spec.num_vertices, spec.num_edges),
                "DBLP" => (spec.num_vertices / 50, spec.num_edges / 50),
                _ => (spec.num_vertices, spec.num_edges),
            };
            spec.num_vertices = v;
            spec.num_edges = e;
            spec
        })
        .collect()
}

/// Looks a dataset up by name in a registry (case-insensitive).
pub fn find_spec<'a>(registry: &'a [DatasetSpec], name: &str) -> Option<&'a DatasetSpec> {
    registry
        .iter()
        .find(|spec| spec.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_cover_table2() {
        let names: Vec<&str> = paper_registry().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["PPI1", "PPI2", "PPI3", "Condmat", "Net", "DBLP"]
        );
        assert_eq!(ci_registry().len(), 6);
    }

    #[test]
    fn ci_registry_is_never_larger_than_the_paper_sizes() {
        for (ci, paper) in ci_registry().iter().zip(paper_registry()) {
            assert!(ci.num_vertices <= paper.num_vertices);
            assert!(ci.num_edges <= paper.num_edges);
            assert_eq!(ci.paper_vertices, paper.paper_vertices);
            assert_eq!(ci.paper_edges, paper.paper_edges);
        }
    }

    #[test]
    fn find_spec_is_case_insensitive() {
        let registry = ci_registry();
        assert!(find_spec(&registry, "ppi1").is_some());
        assert!(find_spec(&registry, "CONDMAT").is_some());
        assert!(find_spec(&registry, "unknown").is_none());
    }

    #[test]
    fn small_specs_generate_graphs_of_roughly_the_requested_size() {
        let registry = ci_registry();
        for name in ["PPI1", "Net"] {
            let spec = find_spec(&registry, name).unwrap();
            let graph = spec.generate();
            assert_eq!(graph.num_vertices(), spec.num_vertices);
            assert!(graph.num_arcs() > 0);
            // Within a factor of ~4 of the target (generators are stochastic
            // and arcs are stored in both directions).
            assert!(
                graph.num_arcs() < spec.num_edges * 4,
                "{name}: {} arcs vs target {}",
                graph.num_arcs(),
                spec.num_edges
            );
        }
    }
}
