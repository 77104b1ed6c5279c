//! # vmr-desim — deterministic discrete-event simulation kernel
//!
//! The foundation of the BOINC-MR reproduction: everything timing-related
//! in the paper's evaluation (Table I makespans, the Fig. 4 backoff
//! straggler) is reproduced on top of this kernel instead of a physical
//! Emulab cluster.
//!
//! Design points:
//!
//! * **Integer virtual clock** ([`SimTime`], microseconds) — no float
//!   drift, exact event ordering.
//! * **FIFO tie-breaking** in the event queue — two runs with the same
//!   seed produce identical traces, making every experiment in the repo
//!   reproducible bit-for-bit.
//! * **Label-forked RNG streams** ([`RngStream::fork`]) — adding a random
//!   draw in one model component cannot perturb any other component.
//! * **Externally driven loop** ([`Simulation::next_event`]) — the model
//!   owns its state and matches on event payloads; the kernel never calls
//!   back into user code, avoiding `RefCell` webs.

#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

pub use queue::{EventId, EventQueue};
pub use rng::RngStream;
pub use sim::{Fired, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::{Point, Span, Timeline};
