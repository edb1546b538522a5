//! One module per `usim` subcommand.
//!
//! Every command exposes `run(tokens) -> Result<String, CliError>`: it parses
//! its own options with [`crate::args::Arguments`], does the work, and
//! returns the text to print.

pub mod convert;
pub mod datasets;
pub mod er;
pub mod generate;
pub mod matrices;
pub mod pairs;
pub mod serve;
pub mod simrank;
pub mod stats;
pub mod topk;
pub mod update;
