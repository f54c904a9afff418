//! Dissemination grid (extension experiment; DESIGN.md B8): fanout-1 push
//! rumor spreading over the live views of S&F, push-pull and shuffle,
//! under the rumor-channel fault zoo (lossless, uniform, bursty,
//! partition, victims), with 1 % uniform loss on the membership channel.
//! Spread-time milestones read against the Doerr et al. `log₂n + ln n`
//! yardstick (EXPERIMENTS.md § "Dissemination workload"); unreached
//! milestones print the `rounds + 1` sentinel.
//!
//! n = 2000, 20 burn-in rounds, 60 broadcast rounds, 3 replicates, seed
//! 42. Stdout is the bare TSV. The n = 5×10⁵ spread time and message
//! complexity are the `rumor_push` workload of the workspace benchmark
//! (`BENCHMARK.json`).

use sandf_bench::sweeps;

fn main() {
    print!("{}", sweeps::broadcast_table(2000, 20, 60, 3, 42));
}
