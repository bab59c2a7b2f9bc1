//! Spreading an untraced window over child processes.
//!
//! `sgx-sim` times its pause loop once per process and turns every later
//! charge into pause iterations by that reading. Readings differ by a few
//! per cent between processes even on a quiet host, and a workload whose
//! pace its charges set runs that much faster or slower for the whole
//! process. So every workload splits its untraced window into [`PROCS`]
//! parts, run each part in a child process (this program
//! with `--part k`), one after another, and pool what the parts saw: a
//! run then measures several readings, not one.

use std::process::{Command, Stdio};

use crate::{Args, Outcome};

/// Child processes an untraced window is split over.
pub const PROCS: u16 = 6;

/// Named series of figures a part reports; a scalar is a series of one.
#[derive(Debug, Default)]
pub struct Record(Vec<(String, Vec<f64>)>);

impl Record {
    /// Append `values` to the series `key`.
    pub fn push(&mut self, key: &str, values: impl IntoIterator<Item = f64>) {
        match self.0.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => v.extend(values),
            None => self.0.push((key.to_owned(), values.into_iter().collect())),
        }
    }

    /// The series `key`, pooled over parts in part order.
    pub fn get(&self, key: &str) -> &[f64] {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
            .unwrap_or_else(|| panic!("no part reported `{key}`"))
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.get(key).iter().sum()
    }

    /// Put a part's outcome into the record.
    pub fn push_outcome(&mut self, out: &Outcome) {
        self.push("correct", [f64::from(u8::from(out.correct))]);
        self.push("attempted", [out.attempted as f64]);
        self.push("failed", [out.failed as f64]);
    }

    /// Fold the pooled parts' outcomes into `out`.
    pub fn add_outcome_to(&self, out: &mut Outcome) {
        out.correct &= self.get("correct").iter().all(|&c| c == 1.0);
        out.attempted += self.sum("attempted") as u64;
        out.failed += self.sum("failed") as u64;
    }

    /// The record as a part prints it: one `@key v v …` line per series.
    fn text(&self) -> String {
        self.0
            .iter()
            .map(|(key, values)| {
                let v: Vec<String> = values.iter().map(f64::to_string).collect();
                format!("@{key} {}\n", v.join(" "))
            })
            .collect()
    }

    /// Print the record as a part's result.
    pub fn print(&self) {
        print!("{}", self.text());
    }

    /// Read the record lines of a part's output back; the other lines
    /// are printed on.
    fn parse_into(&mut self, stdout: &str) -> Result<(), String> {
        for line in stdout.lines() {
            let Some(rest) = line.strip_prefix('@') else {
                println!("{line}");
                continue;
            };
            let mut words = rest.split_whitespace();
            let key = words.next().ok_or("empty record line")?;
            let values = words
                .map(|w| w.parse::<f64>().map_err(|e| format!("{key}: {w:?}: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            self.push(key, values);
        }
        Ok(())
    }
}

/// Run parts `0..PROCS` of the workload in child processes, one after
/// another, each for an equal share of `--seconds`, and pool their
/// records. Part `k` gets seed `seed + k`.
pub fn run_all(args: &Args) -> Record {
    let exe = std::env::current_exe().expect("the benchmark's own executable");
    let seconds = args.seconds / f64::from(PROCS);
    let mut pooled = Record::default();
    for part in 0..PROCS {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--trace", "0"])
            .args(["--seed", &args.seed.wrapping_add(u64::from(part)).to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--part", &part.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .unwrap_or_else(|e| panic!("start part {part} of {}: {e}", args.workload));
        assert!(
            out.status.success(),
            "part {part} of {} failed: {}",
            args.workload,
            out.status
        );
        pooled
            .parse_into(&String::from_utf8_lossy(&out.stdout))
            .unwrap_or_else(|e| panic!("part {part} of {}: bad record: {e}", args.workload));
    }
    pooled
}

#[cfg(test)]
mod tests {
    use super::Record;

    /// What a part prints reads back as the same series, and a second
    /// part's series are appended in order.
    #[test]
    fn records_round_trip_and_pool() {
        let mut part = Record::default();
        part.push("latencies", [1.5, 0.25, 1e-7]);
        part.push("sessions", [3.0]);
        let mut pooled = Record::default();
        pooled.parse_into(&part.text()).unwrap();
        pooled.parse_into("a log line\n@latencies 4\n@sessions 1\n").unwrap();
        assert_eq!(pooled.get("latencies"), &[1.5, 0.25, 1e-7, 4.0]);
        assert_eq!(pooled.sum("sessions"), 4.0);
        assert!(pooled.parse_into("@sessions x").is_err());
    }
}
