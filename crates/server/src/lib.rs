//! # clara-server — the sharded, cache-fronted feedback service
//!
//! The paper's clustering amortises repair cost across thousands of MOOC
//! submissions; this crate turns the `clara-core` library into the
//! long-running service that realises the amortisation online:
//!
//! * [`store`] — the **persistent cluster index**: per-problem
//!   [`ClusterStore`]s built once from the correct pool, serialized to disk
//!   as JSON, warm-loaded at startup (re-analysing only the `K` cluster
//!   representatives instead of re-clustering all `N` solutions) and grown
//!   incrementally as newly verified correct submissions arrive;
//! * [`cache`] — an **LRU result cache** keyed by the formatting-insensitive
//!   structural program hash, answering duplicate submissions (the dominant
//!   case in MOOC traffic) in O(1);
//! * [`service`] — the **sharded pipeline**: one shard per problem, each
//!   serving an `Arc` snapshot of its store behind a std `RwLock`, behind
//!   the shared cache;
//! * [`pool`] / [`serve`] — a panic-isolated **worker pool** over
//!   `std::thread` draining one bounded queue, and the [`Server`] that runs
//!   the service on it;
//! * [`protocol`] — the **wire format**: one JSON request per NDJSON line
//!   or HTTP body, one JSON response back;
//! * [`net`] — the **front door**: NDJSON over TCP or stdin/stdout and
//!   HTTP (`POST /repair`, `GET /health`, `/stats`, `/metrics`) on blocking
//!   std sockets with one thread per connection and a 1 MiB input cap,
//!   shedding a request when the worker queue is full; `clara-cli serve`
//!   wires it up;
//! * [`shard`] / [`router`] / [`retry`] — the **fleet**: a consistent-hash
//!   ring assigns each problem×language key to a shard process and its
//!   replica, and a stateless [`Router`] forwards to them with retries,
//!   backoff, circuit breakers and failover;
//! * [`fault`] — seeded **fault injection** for chaos testing the fleet;
//! * [`obs`] — **observability**: metrics [`Registry`]s, latency
//!   histograms, Prometheus rendering and structured logs. Each
//!   [`FeedbackService`] and [`Router`] owns a registry holding everything it
//!   counts; the process-wide [`Registry::global`] holds only the per-stage
//!   latency histograms. `/stats`, `/health` and `/metrics` all render one
//!   dump of the two ([`Server::stats_dump`], [`Router::stats_dump`]).
//!
//! Threads, sockets and locks come from `std` alone (the build environment
//! is offline: no tokio, no libc), and the crate forbids `unsafe` code.
//!
//! ```rust
//! use std::sync::Arc;
//! use clara_core::ClaraConfig;
//! use clara_corpus::mooc::derivatives;
//! use clara_server::{ClusterStore, FeedbackService, Request, ServiceConfig, Status};
//!
//! let problem = derivatives();
//! let seeds: Vec<&str> = problem.seeds.clone();
//! let (store, _) = ClusterStore::build(&problem, seeds, ClaraConfig::default());
//! let service = FeedbackService::new(vec![store], ServiceConfig::default());
//! let response = service.handle(&Request {
//!     id: 1,
//!     problem: "derivatives".into(),
//!     lang: None,
//!     source: "def computeDeriv(poly):\n    new = []\n    for i in xrange(1,len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n".into(),
//!     learn: None,
//!     trace: None,
//! });
//! assert_eq!(response.status, Status::Repaired);
//! assert!(!response.feedback.is_empty());
//! // The same submission again — reformatted — is a cache hit.
//! let dup = service.handle(&Request {
//!     id: 2,
//!     problem: "derivatives".into(),
//!     lang: None,
//!     source: "def computeDeriv(poly):\n\n    new = []\n    for i in xrange(1,len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n".into(),
//!     learn: None,
//!     trace: None,
//! });
//! assert!(dup.cache_hit);
//! assert_eq!(dup.feedback, response.feedback);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod fault;
pub mod net;
pub mod obs;
pub mod pool;
pub mod protocol;
pub mod retry;
pub mod router;
pub mod serve;
pub mod service;
pub mod shard;
pub mod store;

pub use cache::{LruCache, StripedCache};
pub use fault::{FaultAction, FaultInjector, FaultPlan, FaultPlanError};
pub use net::{run_ndjson, Backend, FrontDoor, ShutdownHandle};
pub use obs::{
    mint_trace_id, render_prometheus, Counter, Gauge, Histogram, HistogramSnapshot, MetricsDump, Registry,
};
pub use pool::{PoolClosed, TrySubmitError, WorkerPool};
pub use protocol::{parse_incoming, parse_request, render_response, Incoming, Request, Response, Status};
pub use retry::{BreakerState, CircuitBreaker, RetryPolicy, SplitMix64};
pub use router::{Router, RouterConfig};
pub use serve::{default_workers, Server, ServerConfig};
pub use service::{FeedbackService, ServiceConfig};
pub use shard::{HashRing, ShardSpec, ShardSpecError, REPLICATION_FACTOR};
pub use store::{ClusterStore, StoreError, STORE_FORMAT_VERSION};
