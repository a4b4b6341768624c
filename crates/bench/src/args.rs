//! Minimal CLI-flag parsing shared by the experiment binaries.

/// Run size of an experiment binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSize {
    /// Few images / coarse sweeps; finishes in seconds to a couple of
    /// minutes.
    Quick,
    /// The defaults used for `EXPERIMENTS.md`.
    Standard,
    /// More images for tighter statistics.
    Full,
}

impl RunSize {
    /// Parses `--quick` / `--full` from `std::env::args` (default
    /// [`RunSize::Standard`]), for binaries that take no other flag.
    /// Exits as [`Flags::from_env`] does on `--help` or any other flag.
    pub fn from_env() -> Self {
        Flags::from_env(&[]).run_size()
    }

    /// Picks one of three values by run size.
    pub fn pick<T: Copy>(&self, quick: T, standard: T, full: T) -> T {
        match self {
            RunSize::Quick => quick,
            RunSize::Standard => standard,
            RunSize::Full => full,
        }
    }
}

/// Why [`Flags::parse`] refused an argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// `--help` or `-h`: the caller asked for usage, not a run.
    Help,
    /// An argument that is not a declared flag.
    Unknown(String),
    /// A value flag last on the line, with no value after it.
    MissingValue(String),
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagError::Help => write!(f, "usage requested"),
            FlagError::Unknown(arg) => write!(f, "unknown argument {arg:?}"),
            FlagError::MissingValue(flag) => write!(f, "{flag} needs a value"),
        }
    }
}

impl std::error::Error for FlagError {}

/// Parsed `--name value` / `--name=value` flags (plus the bare `--quick`
/// / `--full` run-size switches, which take no value), checked against
/// the value flags a binary declares.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: Vec<(String, String)>,
    size: Option<RunSize>,
}

impl Flags {
    /// Parses the process arguments against the value flags `valued`
    /// (names without the leading `--`). `--help` prints usage and
    /// exits 0 without running anything; an unknown flag or a missing
    /// value prints the problem and usage on stderr and exits 2.
    pub fn from_env(valued: &[&str]) -> Self {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        let bin = std::path::Path::new(&bin)
            .file_name()
            .map_or(bin.clone(), |name| name.to_string_lossy().into_owned());
        match Self::parse(args, valued) {
            Ok(flags) => flags,
            Err(FlagError::Help) => {
                println!("{}", usage(&bin, valued));
                std::process::exit(0)
            }
            Err(e) => {
                eprintln!("{bin}: error: {e}\n{}", usage(&bin, valued));
                std::process::exit(2)
            }
        }
    }

    /// Parses an explicit argument list (without the program name)
    /// against the value flags `valued`.
    ///
    /// # Errors
    ///
    /// [`FlagError::Help`] on `--help` / `-h`, [`FlagError::Unknown`]
    /// for an argument that is neither a run-size switch nor a declared
    /// flag, and [`FlagError::MissingValue`] for a trailing value flag.
    pub fn parse<S: Into<String>, I: IntoIterator<Item = S>>(
        args: I,
        valued: &[&str],
    ) -> Result<Self, FlagError> {
        let mut flags = Self::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(FlagError::Help),
                // The first run-size switch wins.
                "--quick" => flags.size = flags.size.or(Some(RunSize::Quick)),
                "--full" => flags.size = flags.size.or(Some(RunSize::Full)),
                _ => {
                    let (name, value) = match arg.strip_prefix("--") {
                        Some(flag) => match flag.split_once('=') {
                            Some((name, value)) => (name.to_string(), Some(value.to_string())),
                            None => (flag.to_string(), None),
                        },
                        None => return Err(FlagError::Unknown(arg)),
                    };
                    if !valued.contains(&name.as_str()) {
                        return Err(FlagError::Unknown(arg));
                    }
                    let Some(value) = value.or_else(|| args.next()) else {
                        return Err(FlagError::MissingValue(arg));
                    };
                    flags.values.push((name, value));
                }
            }
        }
        Ok(flags)
    }

    /// The run size implied by `--quick` / `--full` (default standard).
    pub fn run_size(&self) -> RunSize {
        self.size.unwrap_or(RunSize::Standard)
    }

    /// The raw value of the first `--name value` or `--name=value`, if
    /// present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.values.iter().find(|(flag, _)| flag == name).map(|(_, value)| value.as_str())
    }

    /// Parses the value of `--name`, if present.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value does not parse —
    /// experiment binaries fail loudly on bad invocations.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value_of(name).map(|v| match v.parse() {
            Ok(value) => value,
            Err(_) => panic!("invalid value {v:?} for --{name}"),
        })
    }
}

/// The one-line usage of `bin` with the value flags `valued`.
fn usage(bin: &str, valued: &[&str]) -> String {
    let mut line = format!("usage: {bin} [--quick | --full]");
    for name in valued {
        line.push_str(&format!(" [--{name} <value>]"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_size() {
        assert_eq!(RunSize::Quick.pick(1, 2, 3), 1);
        assert_eq!(RunSize::Standard.pick(1, 2, 3), 2);
        assert_eq!(RunSize::Full.pick(1, 2, 3), 3);
    }

    const VALUED: &[&str] = &["width", "k", "mode", "height"];

    #[test]
    fn flags_parse_both_spellings() {
        let args = ["--width", "640", "--k=4", "--quick", "--mode", "keyed"];
        let flags = Flags::parse(args, VALUED).unwrap();
        assert_eq!(flags.value_of("width"), Some("640"));
        assert_eq!(flags.parsed::<u32>("width"), Some(640));
        assert_eq!(flags.parsed::<u32>("k"), Some(4));
        assert_eq!(flags.value_of("mode"), Some("keyed"));
        assert_eq!(flags.value_of("height"), None);
        assert_eq!(flags.run_size(), RunSize::Quick);
        assert_eq!(Flags::parse(["--full"], &[]).unwrap().run_size(), RunSize::Full);
        assert_eq!(Flags::default().run_size(), RunSize::Standard);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn flags_reject_bad_values() {
        let _ = Flags::parse(["--width", "lots"], VALUED).unwrap().parsed::<u32>("width");
    }

    #[test]
    fn flags_reject_unknown_arguments() {
        let unknown = |arg: &str| FlagError::Unknown(arg.to_string());
        assert_eq!(Flags::parse(["--out", "x.json"], VALUED).unwrap_err(), unknown("--out"));
        assert_eq!(Flags::parse(["--out=x.json"], VALUED).unwrap_err(), unknown("--out=x.json"));
        assert_eq!(Flags::parse(["--quick", "stray"], VALUED).unwrap_err(), unknown("stray"));
        assert_eq!(Flags::parse(["--quick"], &[]).unwrap().run_size(), RunSize::Quick);
        assert_eq!(
            Flags::parse(["--k", "2", "--width"], VALUED).unwrap_err(),
            FlagError::MissingValue("--width".to_string())
        );
    }

    #[test]
    fn help_is_a_request_not_a_run() {
        for args in [&["--help"][..], &["-h"], &["--quick", "--help"], &["--width", "640", "-h"]] {
            assert_eq!(Flags::parse(args.iter().copied(), VALUED).unwrap_err(), FlagError::Help);
        }
        // A flag's value is not a switch.
        let flags = Flags::parse(["--mode", "--help"], VALUED).unwrap();
        assert_eq!(flags.value_of("mode"), Some("--help"));
        assert!(usage("pipeline_stages", VALUED).contains("[--width <value>]"));
    }
}
