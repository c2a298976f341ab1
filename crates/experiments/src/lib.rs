//! Regenerates every table and figure of *"When the Internet Sleeps"*
//! (IMC 2014) from the sleepwatch pipeline.
//!
//! Each experiment is a function from a shared [`Context`] to an
//! [`ExperimentOutput`] (rendered report + headline metrics + CSV). The
//! `experiments` binary dispatches on experiment ids; EXPERIMENTS.md
//! records paper-vs-measured values per id.
//!
//! | id | paper content |
//! |---|---|
//! | `fig1`–`fig3` | sample blocks: estimates vs ground truth |
//! | `fig4`/`fig5` | Âs / Âo vs true A over a full survey |
//! | `fig6` | 35-day spectrum of the diurnal sample block |
//! | `fig7`–`fig9` | controlled-simulation detection accuracy |
//! | `fig10` | strongest-frequency CDF (incl. restart artifact) |
//! | `fig11` | long-term diurnal fraction 2009–2013 |
//! | `fig12`/`fig13` | world maps: observable / % diurnal |
//! | `fig14` | phase vs longitude |
//! | `fig15` | diurnal fraction vs allocation month |
//! | `fig16` | diurnal fraction vs per-capita GDP |
//! | `fig17` | diurnal fraction per link keyword |
//! | `table1` | diurnal-detection confusion matrix |
//! | `table2` | cross-site agreement |
//! | `table3`/`table4` | country / region league tables |
//! | `table5` | ANOVA factor screening |
//! | `usc` | §3.2.4 campus ground-truth study |
//! | `ext-*` | extensions: organizations, Internet sizing, time-of-day, outage scoring |
//! | `ablate-*` | design-choice ablations |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ablations;
mod common;
mod controlled;
mod extensions;
mod plot;
mod samples;
mod validation;
mod worldexp;

pub use common::{Context, DatasetFormat, ExperimentOutput, Options};
pub use extensions::write_dataset_bin;

/// An experiment: one table or figure from the shared context.
pub type Experiment = fn(&Context) -> ExperimentOutput;

/// Every experiment, in run order: its id and the function that runs it.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1", samples::fig1),
    ("fig2", samples::fig2),
    ("fig3", samples::fig3),
    ("fig4", validation::fig4),
    ("fig5", validation::fig5),
    ("fig6", samples::fig6),
    ("fig7", controlled::fig7),
    ("fig8", controlled::fig8),
    ("fig9", controlled::fig9),
    ("fig10", worldexp::fig10),
    ("fig11", worldexp::fig11),
    ("fig12", worldexp::fig12),
    ("fig13", worldexp::fig13),
    ("fig14", worldexp::fig14),
    ("fig15", worldexp::fig15),
    ("fig16", worldexp::fig16),
    ("fig17", worldexp::fig17),
    ("table1", validation::table1),
    ("table2", worldexp::table2),
    ("table3", worldexp::table3),
    ("table4", worldexp::table4),
    ("table5", worldexp::table5),
    ("usc", extensions::usc),
    ("ext-orgs", extensions::ext_orgs),
    ("ext-size", extensions::ext_size),
    ("ext-timeofday", extensions::ext_timeofday),
    ("ext-outages", extensions::ext_outages),
    ("ext-dataset", extensions::ext_dataset),
    ("ext-weekend", extensions::ext_weekend),
    ("ext-lease", extensions::ext_lease),
    ("ablate-ewma", ablations::ablate_ewma),
    ("ablate-strict", controlled::ablate_strict),
    ("ablate-probes", ablations::ablate_probes),
    ("ablate-gaps", ablations::ablate_gaps),
    ("ablate-acf", ablations::ablate_acf),
    ("ablate-trim", ablations::ablate_trim),
];

/// Runs one experiment by id.
pub fn run(id: &str, ctx: &Context) -> Option<ExperimentOutput> {
    EXPERIMENTS.iter().find(|(name, _)| *name == id).map(|(_, experiment)| experiment(ctx))
}
