//! `bench <experiment> [--threads N] [--quiet]` — regenerate one of the
//! paper's artifacts under `results/` (relative to the working directory).
//!
//! Each experiment runs in a process of its own: the telemetry registry is
//! per process, so each export holds exactly one experiment's metrics.

#![forbid(unsafe_code)]

use bench::Opts;

mod experiments {
    pub mod chaos_sweep;
    pub mod cover_ablation;
    pub mod figure5;
    pub mod multipath_sweep;
    pub mod padding_sweep;
    pub mod scalability;
    pub mod scalability_sweep;
    pub mod shard_recovery;
    pub mod table1;
    pub mod table2;

    /// Simulated time `s` seconds after the start.
    pub fn secs(s: u64) -> simnet::SimTime {
        simnet::SimTime::ZERO + simnet::SimDuration::from_secs(s)
    }
}

use experiments::*;

/// An experiment: the name that selects it and its entry point.
type Experiment = (&'static str, fn(&Opts));

/// Every experiment, in the order `scripts/reproduce.sh` runs them, with
/// the paper result it regenerates and what it writes under `results/`
/// (the sweeps also write `TELEMETRY_<name>.json`).
static EXPERIMENTS: [Experiment; 10] = [
    ("table1", table1::run),                       // WF accuracy: table1.csv
    ("table2", table2::run),                       // download times: table2.csv
    ("figure5", figure5::run),                     // LoadBalancer: figure5_{with,without}_lb.csv
    ("scalability", scalability::run),             // §7.3 EPC: scalability.txt
    ("cover_ablation", cover_ablation::run),       // §9.1 Cover: cover_ablation.txt
    ("shard_recovery", shard_recovery::run),       // §9.3 Shard: shard_recovery.txt
    ("multipath_sweep", multipath_sweep::run),     // §9.4: multipath_sweep.csv
    ("padding_sweep", padding_sweep::run),         // padding quantum: padding_sweep.csv
    ("scalability_sweep", scalability_sweep::run), // churn: scalability_sweep.csv
    ("chaos_sweep", chaos_sweep::run),             // fault injection: chaos.csv
];

/// The experiment and options the arguments (program name excluded) name.
/// An unknown experiment or flag, or a missing or malformed value, is an
/// error.
fn parse(args: &[String]) -> Result<(&'static Experiment, Opts), String> {
    let (name, flags) = args.split_first().ok_or("no experiment given")?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| format!("unknown experiment {name}"))?;
    let mut opts = Opts::default();
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--quiet" => opts.quiet = true,
            "--threads" => {
                let value = flags.next().ok_or("--threads needs a value")?;
                opts.threads = value
                    .parse()
                    .map_err(|_| format!("--threads {value}: not a thread count"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((experiment, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(((_, run), opts)) => run(&opts),
        Err(why) => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "bench: {why}\nusage: bench <experiment> [--threads N] [--quiet]\n\
                 experiments: {}",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<(&'static str, Opts), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse(&args).map(|((name, _), opts)| (*name, opts))
    }

    #[test]
    fn parses_every_experiment_and_refuses_anything_else() {
        let both = Opts {
            threads: 3,
            quiet: true,
        };
        for (name, _) in &EXPERIMENTS {
            assert_eq!(parse_strs(&[name]), Ok((*name, Opts::default())));
            for flags in [["--threads", "3", "--quiet"], ["--quiet", "--threads", "3"]] {
                let args: Vec<&str> = std::iter::once(*name).chain(flags).collect();
                assert_eq!(parse_strs(&args), Ok((*name, both)));
            }
        }
        for bad in [
            &[][..],
            &["table3"],
            &["--quiet"],
            &["--threads", "1", "figure5"],
            &["figure5", "--mb", "1"],
            &["figure5", "--threads"],
            &["figure5", "--threads", "x"],
            &["figure5", "--threads", "-1"],
            &["figure5", "--quiet", "extra"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} accepted");
        }
    }
}
