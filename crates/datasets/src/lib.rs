//! Synthetic uncertain-graph datasets standing in for the paper's evaluation
//! data.
//!
//! The paper evaluates on three protein-protein interaction networks
//! (PPI1–PPI3, from \[18\] and the STRING database), two co-authorship networks
//! (Net, Condmat), the DBLP co-authorship graph, R-MAT synthetic graphs for
//! the scalability experiment, and a DBLP author-disambiguation workload for
//! the entity-resolution case study.  None of those datasets ship with this
//! repository (they are external downloads, some behind licenses), so this
//! crate provides generators that reproduce their *relevant characteristics*
//! — vertex/edge counts, degree structure and probability distributions from
//! Table II — plus the ground truth each case study needs (planted protein
//! complexes, planted author identities).  Each generator's module docs
//! describe its substitution and why it preserves the behaviour being
//! measured.
//!
//! * [`ppi`] — planted-complex PPI generator (Fig. 13 / Fig. 14 ground truth);
//! * [`coauthor`] — preferential-attachment co-authorship generator with the
//!   `p = 1 − exp(−w/μ)` uncertainty assigner of \[44\];
//! * [`rmat`] — R-MAT generator with uniform edge probabilities (Fig. 12);
//! * [`er_records`] — ambiguous-author record-graph generator (Table IV/V,
//!   Fig. 15);
//! * [`registry`] — named dataset configurations mirroring Table II, each
//!   with a CI-scale variant so the experiment harness runs on a laptop.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod coauthor;
pub mod er_records;
pub mod ppi;
pub mod registry;
pub mod rmat;

pub use coauthor::CoauthorGenerator;
pub use er_records::{ErDataset, ErGenerator, NameGroup};
pub use ppi::{PpiDataset, PpiGenerator};
pub use registry::{ci_registry, paper_registry, DatasetSpec, GeneratorKind};
pub use rmat::RmatGenerator;
