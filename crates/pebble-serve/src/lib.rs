//! # pebble-serve
//!
//! Certified scheduling as a service: a long-running HTTP/JSON server that
//! accepts DAGs in any `pebble-io` format, schedules them through the
//! certified compose solve ([`pebble_sched::compose_certified`]) under a
//! per-request deadline, and answers with a
//! [`pebble_sched::ScheduleReport`] carrying a certified optimality gap.
//!
//! The load-bearing piece is the **content-addressed schedule cache**
//! ([`cache`]): requests are keyed by the iso-invariant canonical hash of
//! their DAG ([`pebble_dag::canon`]), so any relabeling of a previously
//! solved shape is answered from the cache in microseconds — after the
//! stored schedule has been remapped into the request's numbering and
//! **re-validated through the game simulator**. Canonicalization may
//! conflate shapes in the worst case; re-validation turns that into a cache
//! miss, never a wrong answer.
//!
//! Everything is built on `std` alone: a hand-rolled HTTP/1.1 layer
//! ([`http`]), a bounded thread pool ([`pool`]), and the versioned,
//! checksummed on-disk schedule format of [`pebble_io::store`].
//!
//! ```no_run
//! use pebble_serve::{ScheduleCache, ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let cache = Arc::new(ScheduleCache::open("/tmp/prbp-cache")?);
//! let server = Server::start(&ServeConfig::default(), cache)?;
//! println!("serving on {}", server.local_addr());
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod error;
pub mod http;
pub(crate) mod obs;
pub mod pool;
pub mod server;

pub use cache::{warm_from_dir, CacheHit, CacheStats, ScheduleCache, WarmSummary};
pub use error::ServeError;
pub use server::{ServeConfig, Server};
