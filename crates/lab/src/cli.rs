//! Shared command-line flags for campaign binaries.
//!
//! Every campaign-driven binary speaks the same dialect:
//!
//! ```text
//! --threads N      worker threads (default: all cores)
//! --seeds N        seed replications per point (default: 1)
//! --seed S         campaign master seed (default: the engine default)
//! --cache-dir DIR  result store directory (default: no caching)
//! ```
//!
//! Dependency-free by design (the workspace vendors everything), so it
//! parses `std::env::args` directly.

use crate::run::ExecOpts;
use std::path::PathBuf;

/// Parsed campaign flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabArgs {
    /// `--threads` (0 = all cores).
    pub(crate) threads: usize,
    /// `--seeds` (replications per point).
    pub seeds: u32,
    /// `--seed` (campaign master seed), when given.
    pub seed: Option<u64>,
    /// `--cache-dir`, when given.
    pub(crate) cache_dir: Option<PathBuf>,
    /// `--obs-snapshot`, when given: write the binary's reference
    /// registry snapshot (rendered with `Snapshot::to_text`) to this
    /// file after the campaign finishes.
    pub obs_snapshot: Option<PathBuf>,
}

impl LabArgs {
    /// Parses flags from an iterator of arguments (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// Returns a usage message on an unknown flag or malformed value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<LabArgs, String> {
        let mut out = LabArgs {
            seeds: 1,
            ..LabArgs::default()
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
            };
            match flag.as_str() {
                "--threads" => {
                    out.threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}\n{USAGE}"))?;
                }
                "--seeds" => {
                    out.seeds = value("--seeds")?
                        .parse()
                        .map_err(|e| format!("--seeds: {e}\n{USAGE}"))?;
                    if out.seeds == 0 {
                        return Err(format!("--seeds must be at least 1\n{USAGE}"));
                    }
                }
                "--seed" => {
                    out.seed = Some(
                        value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}\n{USAGE}"))?,
                    );
                }
                "--cache-dir" => out.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
                "--obs-snapshot" => {
                    out.obs_snapshot = Some(PathBuf::from(value("--obs-snapshot")?));
                }
                "--help" | "-h" => return Err(USAGE.to_owned()),
                other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, printing usage and exiting on error.
    #[must_use]
    pub fn from_env() -> LabArgs {
        match LabArgs::parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The execution options these flags describe.
    #[must_use]
    pub fn exec_opts(&self) -> ExecOpts {
        ExecOpts {
            threads: self.threads,
            cache_dir: self.cache_dir.clone(),
        }
    }
}

const USAGE: &str = "usage: <campaign-binary> [--threads N] [--seeds N] [--seed S] [--cache-dir DIR] [--obs-snapshot FILE]";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<LabArgs, String> {
        LabArgs::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.threads, 0);
        assert_eq!(args.seeds, 1);
        assert_eq!(args.seed, None);
        assert_eq!(args.cache_dir, None);
        assert_eq!(args.obs_snapshot, None);
    }

    #[test]
    fn full_flag_set() {
        let args = parse(&[
            "--threads",
            "4",
            "--seeds",
            "8",
            "--seed",
            "99",
            "--cache-dir",
            "/tmp/x",
            "--obs-snapshot",
            "/tmp/x/snap.txt",
        ])
        .unwrap();
        assert_eq!(args.threads, 4);
        assert_eq!(args.seeds, 8);
        assert_eq!(args.seed, Some(99));
        assert_eq!(
            args.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(
            args.obs_snapshot.as_deref(),
            Some(std::path::Path::new("/tmp/x/snap.txt"))
        );
        let opts = args.exec_opts();
        assert_eq!(opts.threads, 4);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "many"]).is_err());
        assert!(parse(&["--seeds", "0"]).is_err());
    }
}
