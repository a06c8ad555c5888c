//! polarbench: the repository's benchmark. See `benchmark/README.md`.

pub mod driver;
pub mod gen;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod timed;
pub mod trace;
