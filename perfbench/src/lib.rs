//! The workspace benchmark: time to a bounded answer on access-log
//! workloads, with per-layer timing taken from outside the engine.
//!
//! * [`decor`] — timing decorators over the engine's public traits;
//! * [`assemble`] — decorated jobs built from the same public parts the
//!   job builders use;
//! * [`measure`] — percentiles, accuracy against a precise reference and
//!   the self-time ledger.

pub mod assemble;
pub mod decor;
pub mod measure;
