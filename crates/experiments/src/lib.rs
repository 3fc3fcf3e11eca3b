//! # experiments — the harness regenerating every figure of the paper
//!
//! One module per concern:
//!
//! * [`runner`] — replication control (independent seeded replications,
//!   parallel execution, Student-t confidence intervals with the paper's
//!   ±1%/±5% stopping rules available at paper scale),
//! * [`figures`] — the experiment definitions, one per paper artifact:
//!   Figs. 2–3 (MRCP-RM vs MinEDF-WC on the Facebook workload, one run
//!   charted as `P` and as `T`) and Figs. 4–9 (factor-at-a-time sweeps
//!   over the Table 3 parameters), each with a check that turns the
//!   paper's reported trend into pass/fail verdicts,
//! * [`report`] — table rendering (console + CSV artifacts) and the
//!   verdict lines,
//! * [`plot`] — SVG charts.
//!
//! Scale presets: the paper runs every point to steady state on hours of
//! simulated (and real) time; [`Preset::Default`] shrinks job counts,
//! replication counts and (for the Facebook workload) task counts to keep
//! a full regeneration in CI-friendly time while preserving every trend,
//! and [`Preset::PaperScale`] restores the full protocol.

pub mod figures;
pub mod plot;
pub mod report;
pub mod runner;

pub use figures::{all_figures, figure_by_name, Figure};
pub use plot::{render_svg, Metric};
pub use report::{render_csv, render_table, render_verdicts, FigureResult, PointResult, Verdict};
pub use runner::{MetricAgg, Preset, Scale};
