//! Table-driven command lines for the `repro` and `served` binaries.
//!
//! Each binary declares every flag once, as a [`Flag`] in a table of its
//! [`Spec`]; parsing, `--help`, "did you mean" and the value errors all
//! come from the tables. The durability flags and their front end are
//! declared here, once for both binaries.

use std::path::PathBuf;
use std::time::Duration;
use ucore_project::durability::{self, DurabilityConfig, DurabilityGuard};
use ucore_project::faultinject::FaultPlan;

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// Nothing: the flag is a switch.
    Switch,
    /// One free-form value, shown in the usage text as this placeholder.
    Text(&'static str),
    /// One integer `N`, at least 1 when `positive` and at most `max`.
    Int {
        /// Whether 0 is rejected.
        positive: bool,
        /// The documented upper bound, if any.
        max: Option<u64>,
    },
}

/// One command-line flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--journal`.
    pub name: &'static str,
    /// What follows the flag.
    pub value: Value,
    /// Its line in the usage text.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Flag { name, value: Value::Switch, help }
    }

    /// A flag that takes one free-form value, shown as `placeholder`.
    pub const fn text(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Flag { name, value: Value::Text(placeholder), help }
    }

    /// A flag that takes a non-negative integer.
    pub const fn count(name: &'static str, help: &'static str) -> Self {
        Flag { name, value: Value::Int { positive: false, max: None }, help }
    }

    /// A flag that takes a positive integer.
    pub const fn positive(name: &'static str, help: &'static str) -> Self {
        Flag { name, value: Value::Int { positive: true, max: None }, help }
    }

    /// This integer flag, rejecting values above `max`.
    pub const fn at_most(mut self, max: u64) -> Self {
        if let Value::Int { positive, .. } = self.value {
            self.value = Value::Int { positive, max: Some(max) };
        }
        self
    }

    /// Reads one value of this integer flag as a `T`.
    ///
    /// # Errors
    ///
    /// The value error line, without the usage text.
    fn int<T: TryFrom<u64>>(&self, v: &str) -> Result<T, String> {
        let Value::Int { positive, max } = self.value else {
            return Err(format!("{} takes no integer", self.name));
        };
        let kind = if positive { "positive" } else { "non-negative" };
        let not_an_int = || format!("{} value {v:?} is not a {kind} integer", self.name);
        let n: u64 = v.parse().ok().filter(|&n| n > 0 || !positive).ok_or_else(not_an_int)?;
        if let Some(max) = max.filter(|&max| n > max) {
            return Err(format!("{} value {v:?} exceeds the maximum of {max}", self.name));
        }
        T::try_from(n).map_err(|_| not_an_int())
    }
}

/// `--help` (or `-h`): print the usage text.
pub const HELP: Flag = Flag::switch("--help", "print this usage and exit");
const JOURNAL: Flag =
    Flag::text("--journal", "PATH", "stream completed sweep points to a checksummed journal");
const RESUME: Flag =
    Flag::switch("--resume", "replay the journal; re-evaluate only missing points (needs --journal)");
/// `--timeout-ms N`: release an injected stall after N ms.
pub const TIMEOUT_MS: Flag =
    Flag::positive("--timeout-ms", "release an injected stall as Failed{timeout} after N ms");
/// `--retries N`: retry failed points.
pub const RETRIES: Flag = Flag::count("--retries", "retry failed points up to N times (default 0)");
/// The durability flags both binaries accept.
pub const DURABILITY: &[Flag] = &[JOURNAL, RESUME, TIMEOUT_MS, RETRIES];

/// A binary's command line: a one-line synopsis and its flag tables.
#[derive(Debug)]
pub struct Spec {
    /// The first usage line, e.g. `usage: served [OPTION]...`.
    pub synopsis: &'static str,
    /// The flag tables, each listed in the usage text under its heading.
    pub groups: &'static [(&'static str, &'static [Flag])],
}

impl Spec {
    fn flags(&'static self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|&(_, flags)| flags)
    }

    /// The usage text, generated from the tables.
    pub fn usage(&'static self) -> String {
        let column = |f: &Flag| match f.value {
            Value::Switch => f.name.to_string(),
            Value::Text(placeholder) => format!("{} {placeholder}", f.name),
            Value::Int { .. } => format!("{} N", f.name),
        };
        let width = self.flags().map(|f| column(f).len()).max().unwrap_or(0);
        let mut out = String::from(self.synopsis);
        for (heading, flags) in self.groups {
            out.push_str(&format!("\n{heading}:"));
            for f in *flags {
                out.push_str(&format!("\n  {:width$}  {}", column(f), f.help));
                if let Value::Int { max: Some(max), .. } = f.value {
                    out.push_str(&format!("; at most {max}"));
                }
            }
        }
        out
    }

    /// `message` followed by the usage text, as every usage error reads.
    pub fn error(&'static self, message: impl std::fmt::Display) -> String {
        format!("{message}\n{}", self.usage())
    }

    /// Reads `args` (without the program name) against the tables;
    /// `-h` stands for [`HELP`].
    ///
    /// # Errors
    ///
    /// A usage error for an unknown flag or argument, a missing value, or
    /// an integer out of its flag's range.
    pub fn parse(&'static self, args: Vec<String>) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let name = if arg == "-h" { HELP.name } else { arg.as_str() };
            let Some(flag) = self.flags().find(|f| f.name == name) else {
                let kind = if arg.starts_with('-') { "flag" } else { "argument" };
                let hint = self
                    .flags()
                    .map(|f| (levenshtein(&arg, f.name), f.name))
                    .min()
                    .filter(|&(d, _)| d <= 3)
                    .map(|(_, near)| format!(" (did you mean {near}?)"))
                    .unwrap_or_default();
                return Err(self.error(format!("unknown {kind} {arg:?}{hint}")));
            };
            let value = match flag.value {
                Value::Switch => None,
                Value::Text(_) | Value::Int { .. } => {
                    let v = it.next().ok_or_else(|| self.error(format!("{name} needs a value")))?;
                    if let Value::Int { .. } = flag.value {
                        flag.int::<u64>(&v).map_err(|e| self.error(e))?;
                    }
                    Some(v)
                }
            };
            given.push((flag, value));
        }
        Ok(Args { spec: self, given })
    }
}

/// A parsed command line, every value checked against its flag.
#[derive(Debug)]
pub struct Args {
    spec: &'static Spec,
    given: Vec<(&'static Flag, Option<String>)>,
}

impl Args {
    /// Each flag given, in command-line order, with its value as typed.
    pub fn given(&self) -> &[(&'static Flag, Option<String>)] {
        &self.given
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &Flag) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the last `flag` given, as typed.
    pub fn text(&self, flag: &Flag) -> Option<&str> {
        self.given.iter().rev().find(|(f, _)| *f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The value of the last `flag` given, as a path.
    pub fn path(&self, flag: &Flag) -> Option<PathBuf> {
        self.text(flag).map(PathBuf::from)
    }

    /// The value of the last integer `flag` given, as a `T`.
    ///
    /// # Errors
    ///
    /// A usage error when the value does not fit in `T`.
    pub fn int<T: TryFrom<u64>>(&self, flag: &Flag) -> Result<Option<T>, String> {
        self.text(flag).map(|v| flag.int(v).map_err(|e| self.spec.error(e))).transpose()
    }
}

/// Reads the [`DURABILITY`] flags into a config without a shard lease.
///
/// # Errors
///
/// A usage error for `--resume` without `--journal`, or a `--retries`
/// value beyond `u32`.
pub fn durability_config(args: &Args) -> Result<DurabilityConfig, String> {
    let config = DurabilityConfig {
        journal: args.path(&JOURNAL),
        resume: args.has(&RESUME),
        timeout: args.int(&TIMEOUT_MS)?.map(Duration::from_millis),
        retries: args.int(&RETRIES)?.unwrap_or(0),
        ..DurabilityConfig::default()
    };
    if config.resume && config.journal.is_none() {
        return Err(args.spec.error("--resume requires --journal PATH"));
    }
    Ok(config)
}

/// Activates `config` with the fault plan `faults` unless they ask for
/// nothing, reporting on stderr what a resume replayed. The guard keeps
/// the layer active.
///
/// # Errors
///
/// The journal cannot be opened, replayed or locked.
pub fn activate_durability(
    config: DurabilityConfig,
    faults: FaultPlan,
) -> Result<Option<DurabilityGuard>, String> {
    let config = DurabilityConfig { faults, ..config };
    if config == DurabilityConfig::default() {
        return Ok(None);
    }
    let resumed = config.resume.then(|| config.journal.clone().unwrap_or_default());
    let (guard, report) = durability::activate(config).map_err(|e| e.to_string())?;
    if let Some(path) = resumed {
        let path = path.display();
        eprintln!("resume: replayed {} journaled outcome(s) from {path}", report.records);
        if report.torn_tail {
            eprintln!(
                "warning: journal {path} ended in a torn (partially written) record; \
                 it was skipped and that point will be re-evaluated"
            );
        }
        if report.duplicates > 0 {
            eprintln!(
                "note: journal contained {} superseded record(s) (kept the latest)",
                report.duplicates
            );
        }
    }
    Ok(Some(guard))
}

/// Edit distance between two flags, for near-miss suggestions.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}
