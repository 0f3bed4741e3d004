//! Time-to-answer benchmark for `xlmc`.
//!
//! ```text
//! cargo run --release --manifest-path ttabench/Cargo.toml -- \
//!     --workload answer_single|answer_mlmc|sweep_grid \
//!     [--seed N] [--seconds S] [--trace 0|1] [--print-pins]
//! cargo test --release --manifest-path ttabench/Cargo.toml
//! ```
//!
//! One process runs one workload (see [`run`]) as a closed loop for
//! `--seconds` and prints, as the last line of standard output, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. The line before
//! it records the run's conditions (nproc, workers, seed, operation count,
//! traced or not). Every timed estimate is checked ([`check`]); a panic, a
//! missed target eps or a failed check makes the operation count as
//! failed.
//!
//! Layers are timed from outside, around calls into their public
//! functions, so the library is measured exactly as users call it.
//!
//! The repository's `BENCHMARK.json` runs `answer_single` and `sweep_grid`.
//! `answer_mlmc` runs by hand only: on a shared 2-CPU host two processes
//! on the same seed measured `answer_s` 0.92 s and 0.71 s, too wide a
//! spread for a regression bound.
//!
//! * `--trace 0` prints the end-to-end metrics. `answer_s` is the median,
//!   over the run's distinct inputs, of each input's operation time built
//!   from the run's fastest set-up (which reads no input) and the fastest
//!   repetition of each of its campaigns: repetitions do identical work,
//!   and interference from other tenants of a shared host only ever slows
//!   one down. `campaign_runs_per_s` is runs over the wall time of those
//!   same fastest campaigns. `answer_tail_s` is the highest order
//!   statistic of all operation times, each taken at its input's time
//!   built that way, with at least ten operations beyond it: the answer
//!   time of the slowest inputs, not of the host's worst moments (on
//!   `sweep_grid`, whose passes all run one input, it equals `answer_s`).
//!   `setup_s` is the median of every set-up (model, goldens,
//!   pre-characterization, strategy) in the run, and `peak_heap_mb` the
//!   most heap one operation adds over what was live when it started,
//!   plus the sweep's warm set-up (see [`heap`]).
//! * `--trace 1` spends half the budget untraced and half with spans
//!   around every layer call, then runs a probe of the layers an operation
//!   calls only as a whole (the three pre-characterization steps, the
//!   SET→SEU map, per-run draw, strike and conclude), also spanned. It
//!   prints both self-time tables to standard error and reports the
//!   per-layer metrics: span medians, probe timings (fastest of five),
//!   deterministic counts of the first traced operation, the tracing
//!   overhead and the span coverage of each operation. The probe counts
//!   as one more operation.

pub mod check;
pub mod heap;
pub mod report;
pub mod run;
pub mod stats;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;
