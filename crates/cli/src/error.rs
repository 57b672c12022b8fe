//! CLI error type.

use std::error::Error;
use std::fmt;

/// Errors surfaced to the `gossip` user.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CliError {
    /// No command was given.
    NoCommand,
    /// The command is not recognized.
    UnknownCommand(String),
    /// A required positional argument is missing.
    MissingArgument(&'static str),
    /// An argument failed to parse, or parsed to a value out of range.
    BadArgument {
        /// What was being parsed.
        what: &'static str,
        /// The offending value.
        value: String,
    },
    /// An unknown `--flag` was supplied.
    UnknownFlag(String),
    /// File I/O failed.
    Io(String, String),
    /// The input graph failed to parse or validate.
    BadGraph(String),
    /// The requested operation is not applicable (e.g. exact
    /// conductance on a large graph).
    Unsupported(String),
    /// The network runtime failed (bind, handshake, start barrier, …).
    Net(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NoCommand => write!(f, "no command given; try `gossip help`"),
            CliError::UnknownCommand(c) => write!(f, "unknown command `{c}`; try `gossip help`"),
            CliError::MissingArgument(what) => write!(f, "missing argument: {what}"),
            CliError::BadArgument { what, value } => {
                write!(f, "invalid {what}: `{value}`")
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::Io(path, e) => write!(f, "cannot read `{path}`: {e}"),
            CliError::BadGraph(e) => write!(f, "invalid graph input: {e}"),
            CliError::Unsupported(what) => write!(f, "{what}"),
            CliError::Net(e) => write!(f, "network runtime error: {e}"),
        }
    }
}

impl Error for CliError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        assert!(CliError::NoCommand.to_string().contains("gossip help"));
        assert!(CliError::UnknownCommand("x".into())
            .to_string()
            .contains('x'));
        assert!(CliError::BadArgument {
            what: "count",
            value: "abc".into()
        }
        .to_string()
        .contains("abc"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CliError>();
    }
}
