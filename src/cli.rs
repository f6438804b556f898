//! Flags declared once: each subcommand of `moteur` and
//! `moteur-gridsim` is one [`Command`] whose [`Flag`] table is the only
//! place a flag's name, value placeholder and help exist. The synopsis
//! (`--help`, README), the typed look-ups with their error messages,
//! and the rejection of anything undeclared are all derived from it, so
//! a typo on the command line is an error instead of a silently
//! different experiment.

use std::process::ExitCode;
use std::str::FromStr;

/// One declared flag: a switch, or `--name VALUE`.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    /// Placeholder of the value in the synopsis; `None` for a switch.
    pub value: Option<&'static str>,
    /// What a value that does not parse is told: "`name` needs `needs`",
    /// `{}` standing for the offending value. Empty for free-form text.
    pub needs: &'static str,
    pub help: &'static str,
}

/// A switch: present or absent.
pub const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        needs: "",
        help,
    }
}

/// A flag whose value is taken as text.
pub const fn text(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    typed(name, value, "", help)
}

/// A flag whose value is parsed ([`Args::parsed`]).
pub const fn typed(
    name: &'static str,
    value: &'static str,
    needs: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value: Some(value),
        needs,
        help,
    }
}

/// `head` followed by `items`, space-separated and wrapped at 78
/// columns, continuation lines starting with `indent`.
pub fn wrap(head: String, items: impl Iterator<Item = String>, indent: &str) -> String {
    let mut out = String::new();
    let mut line = head;
    for item in items {
        if line.len() + 1 + item.len() > 78 {
            out.push_str(&line);
            out.push('\n');
            line = indent.to_string();
        }
        line = format!("{line} {item}");
    }
    out + &line + "\n"
}

/// What a subcommand body returns: its exit code, or the one-line
/// message of a failure (exit 1).
pub type Outcome = Result<ExitCode, String>;

/// One subcommand (or, with an empty `name`, a binary without any).
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    /// The positional arguments, as the synopsis shows them.
    pub operands: &'static str,
    pub about: &'static str,
    pub flags: &'static [Flag],
    pub run: fn(&Args) -> Outcome,
    /// What to tell the user about an undeclared flag that used to
    /// exist (`--events` → "use --emit events=PATH").
    pub hint: fn(&str) -> Option<String>,
    /// Lines of help that come from another table (the `--emit` kinds).
    pub notes: fn() -> String,
}

pub const fn command(
    name: &'static str,
    operands: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Outcome,
) -> Command {
    Command {
        name,
        operands,
        about,
        flags,
        run,
        hint: |_| None,
        notes: String::new,
    }
}

/// A command line checked against its [`Command`].
#[derive(Debug)]
pub struct Args<'a> {
    command: &'static Command,
    pub operands: Vec<&'a str>,
    given: Vec<(&'static str, &'a str)>,
}

impl Command {
    pub const fn hooks(mut self, hint: fn(&str) -> Option<String>, notes: fn() -> String) -> Self {
        self.hint = hint;
        self.notes = notes;
        self
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// Sort `args` into operands and declared flags. Anything that
    /// starts with `--` must be declared; a value flag must be followed
    /// by a value, not by the end of the line or another flag. The
    /// error is the usage message.
    pub fn parse<'a>(&'static self, args: &'a [String]) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            command: self,
            operands: Vec::new(),
            given: Vec::new(),
        };
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                parsed.operands.push(arg);
                continue;
            }
            let Some(flag) = self.flag(arg) else {
                let hint = (self.hint)(arg).map_or(String::new(), |h| format!(" ({h})"));
                return Err(format!("unknown flag `{arg}`{hint}"));
            };
            let value = match flag.value {
                None => "",
                Some(placeholder) => match rest.next() {
                    Some(v) if !v.starts_with("--") => v,
                    _ => return Err(format!("{arg} needs a value ({placeholder})")),
                },
            };
            parsed.given.push((flag.name, value));
        }
        Ok(parsed)
    }

    /// The synopsis of this command: its usage line, wrapped, then one
    /// line per flag.
    pub fn help(&self, bin: &str) -> String {
        let head: Vec<&str> = [bin, self.name, self.operands]
            .into_iter()
            .filter(|word| !word.is_empty())
            .collect();
        let items = self.flags.iter().map(|flag| match flag.value {
            Some(v) => format!("[{} {v}]", flag.name),
            None => format!("[{}]", flag.name),
        });
        let mut out = wrap(head.join(" "), items, "   ");
        out.push_str(&format!("    {}\n", self.about));
        for flag in self.flags {
            let left = format!("{} {}", flag.name, flag.value.unwrap_or(""));
            out.push_str(&format!("      {left:<24} {}\n", flag.help));
        }
        out + &(self.notes)()
    }

    /// Check `args` against the table and run the body. `--help` prints
    /// the synopsis and exits 0; a usage error names the subcommand and
    /// the flag and exits 2; a failure of the body exits 1.
    pub fn main(&'static self, bin: &str, args: &[String]) -> ExitCode {
        if args.iter().any(|a| a == "--help") {
            print!("{}", self.help(bin));
            return ExitCode::SUCCESS;
        }
        match self.parse(args) {
            Ok(args) => (self.run)(&args).unwrap_or_else(|msg| {
                eprintln!("{bin}: {msg}");
                ExitCode::FAILURE
            }),
            Err(msg) => {
                eprintln!("{}: {msg}", [bin, self.name].join(" ").trim_end());
                ExitCode::from(2)
            }
        }
    }
}

impl<'a> Args<'a> {
    fn declared(&self, name: &str) -> &'static Flag {
        self.command.flag(name).unwrap_or_else(|| {
            panic!("`{name}` is not declared by `{}`", self.command.name);
        })
    }

    /// Was the flag given?
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The value the flag was given (the first, if it was repeated; `""`
    /// for a switch).
    pub fn value(&self, name: &str) -> Option<&'a str> {
        let flag = self.declared(name);
        let found = self.given.iter().find(|(n, _)| *n == flag.name);
        found.map(|(_, v)| *v)
    }

    /// The value of a typed flag, parsed; a value that does not parse is
    /// the error the flag's row declares, never a fall-back to the default.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        let needs = self.declared(name).needs.replace("{}", v);
        v.parse()
            .map(Some)
            .map_err(|_| format!("{name} needs {needs}"))
    }
}

/// `bin <subcommand> ...`: find the subcommand and hand it the rest of
/// the line; `bin --help` prints every subcommand's synopsis.
pub fn dispatch(bin: &str, commands: &'static [Command], args: &[String]) -> ExitCode {
    let name = args.first().map(String::as_str);
    match commands.iter().find(|c| Some(c.name) == name) {
        Some(command) => command.main(bin, &args[1..]),
        None if name == Some("--help") => {
            commands.iter().for_each(|c| print!("{}", c.help(bin)));
            ExitCode::SUCCESS
        }
        None => {
            let names: Vec<&str> = commands.iter().map(|c| c.name).collect();
            let names = names.join("|");
            eprintln!("usage: {bin} <{names}> ... (--help for every flag)");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(_: &Args) -> Outcome {
        Ok(ExitCode::SUCCESS)
    }

    const FLAGS: &[Flag] = &[
        switch("--json", "machine-readable output"),
        text("--out", "PATH", "where to write"),
        typed("--seed", "N", "an integer", "random seed"),
        typed("--scale", "F", "a valid number, got `{}`", "scale factor"),
    ];
    static DEMO: Command = command("demo", "<file>", "a command for the tests", FLAGS, body).hooks(
        |flag| (flag == "--events").then(|| "use --emit events=PATH".to_string()),
        || "      (a note)\n".to_string(),
    );

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(ToString::to_string).collect()
    }

    fn usage(words: &[&str]) -> String {
        DEMO.parse(&argv(words)).expect_err("a usage error")
    }

    #[test]
    fn operands_and_flags_are_sorted_in_any_order() {
        let argv = argv(&["--seed", "7", "a.xml", "--json", "--out", "x"]);
        let args = DEMO.parse(&argv).unwrap();
        assert_eq!(args.operands, ["a.xml"]);
        assert!(args.has("--json"));
        assert_eq!(args.value("--out"), Some("x"));
        assert_eq!(args.parsed::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(args.parsed::<f64>("--scale"), Ok(None));
    }

    #[test]
    fn undeclared_flags_and_missing_values_are_usage_errors() {
        assert_eq!(usage(&["--jsno"]), "unknown flag `--jsno`");
        assert_eq!(
            usage(&["--events", "e.jsonl"]),
            "unknown flag `--events` (use --emit events=PATH)"
        );
        assert_eq!(usage(&["a.xml", "--out"]), "--out needs a value (PATH)");
        assert_eq!(usage(&["--out", "--json"]), "--out needs a value (PATH)");
    }

    #[test]
    fn a_mistyped_value_is_the_declared_error_not_the_default() {
        let argv = argv(&["--seed", "x", "--scale", "big"]);
        let args = DEMO.parse(&argv).unwrap();
        assert_eq!(
            args.parsed::<u64>("--seed"),
            Err("--seed needs an integer".to_string())
        );
        assert_eq!(
            args.parsed::<f64>("--scale"),
            Err("--scale needs a valid number, got `big`".to_string())
        );
    }

    #[test]
    fn help_is_derived_from_the_table() {
        let help = DEMO.help("tool");
        assert!(help.starts_with("tool demo <file> [--json] [--out PATH] [--seed N]"));
        for flag in DEMO.flags {
            assert_eq!(
                help.matches(&format!("[{}", flag.name)).count(),
                1,
                "{help}"
            );
            assert!(help.contains(flag.help), "{help}");
        }
        assert!(help.ends_with("scale factor\n      (a note)\n"), "{help}");
    }

    #[test]
    #[should_panic(expected = "`--bogus` is not declared by `demo`")]
    fn looking_up_an_undeclared_flag_is_a_programming_error() {
        let argv = argv(&[]);
        DEMO.parse(&argv).unwrap().has("--bogus");
    }
}
