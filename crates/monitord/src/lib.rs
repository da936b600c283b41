//! # fp-monitord — streaming monitor service for FlowPulse counters
//!
//! The paper's deployment story is an *online* monitor: leaf switches
//! export per-iteration collective counters, and a service watches many
//! jobs at once, raising temporal-symmetry alarms and localizing cable
//! faults in production. Everything else in this workspace runs the
//! [`Monitor`](flowpulse::monitor::Monitor) in-sim, one fabric at a time;
//! this crate is the serving shape around the same detection core:
//!
//! * **Ingest** ([`queue`]) — a bounded queue with explicit, counted
//!   backpressure: [`QueuePolicy::Drop`] / [`Park`](QueuePolicy::Park) /
//!   [`Block`](QueuePolicy::Block), and a return lane that carries
//!   processed snapshots back to the decoder, so that in steady state no
//!   heap block is allocated on one thread and freed on the other.
//! * **Process** ([`service`]) — one worker batches snapshots off the
//!   queue and demultiplexes them onto per-`(fabric, job)` stream state:
//!   a window of the iterations not evaluated yet plus an
//!   incrementally-scanned learned monitor, flushed through the ring
//!   localizer when the stream ends. Memory does not grow with stream
//!   length, and per-stream alarm output is byte-identical to running the
//!   offline monitor over the same snapshot sequence.
//! * **Transport** ([`wire`]) — in-process [`IngestHandle::push`], or
//!   newline-delimited JSON over any `BufRead` (stdin, pipes) and a
//!   Unix-domain socket listener; canonical lines are decoded in place,
//!   undecodable ones (bad UTF-8 included) are counted and skipped, and a
//!   failed connection ends only itself.
//! * **Self-observability** ([`metrics`]) — counters, gauges and
//!   log-bucketed histograms (ingest rate, queue depth, batch sizes,
//!   scan/verdict latencies, drops) exported as periodic `metrics.jsonl`
//!   lines and a Prometheus-style text dump.
//!
//! The `fp-monitord` binary wraps all of this around stdin or
//! `FP_MONITORD_SOCK`; `flowpulse::eval::monitord_feed` is the harness
//! side that streams N concurrent simulated fabrics into one service
//! (see `examples/monitord_demo.rs` and the E10 sweep in `fp-bench`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod queue;
pub mod service;
pub mod wire;

pub use metrics::MetricsRegistry;
pub use queue::{IngestQueue, QueuePolicy, QueueStats};
pub use service::{IngestHandle, Monitord, ServiceConfig, ServiceReport, StreamReport};
pub use wire::{decode_line, feed_lines, snapshot_line, WireStats};

#[cfg(unix)]
pub use wire::serve_unix;
