//! `edm_serve::flags` reads every binary's command line, so each lookup
//! must answer any argument vector with a value or a `FlagError`, never a
//! panic, and agree with the documented rule: the first occurrence of a
//! name wins, and its value is the argument after it.

use edm_serve::flags::{self, FlagError};
use proptest::prelude::*;

/// Flag names the arguments and lookups draw from, so lookups often hit.
const NAMES: [&str; 5] = ["--threads", "--journal", "--on", "--", "-"];

/// One argument: a known name, a number, or arbitrary text.
fn arg() -> impl Strategy<Value = String> {
    prop_oneof![
        (0..NAMES.len()).prop_map(|i| NAMES[i].to_string()),
        (0u64..100_000).prop_map(|n| n.to_string()),
        Just("18446744073709551616".to_string()),
        Just("-1".to_string()),
        Just("+7".to_string()),
        Just(String::new()),
        Just("--threads=2".to_string()),
        proptest::collection::vec(0u8..=255, 0..12)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
    ]
}

fn name() -> impl Strategy<Value = &'static str> {
    (0..NAMES.len()).prop_map(|i| NAMES[i])
}

/// The argument after the first occurrence of `name`: `None` when absent,
/// `Some(None)` when it is the last argument.
fn first_value<'a>(args: &'a [String], name: &str) -> Option<Option<&'a String>> {
    let i = args.iter().position(|a| a == name)?;
    Some(args.get(i + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn lookups_answer_any_command_line(
        args in proptest::collection::vec(arg(), 0..10),
        name in name(),
    ) {
        match (flags::int(&args, name), first_value(&args, name)) {
            (Ok(None), None) => {}
            (Ok(Some(n)), Some(Some(value))) => prop_assert_eq!(value.parse::<u64>().ok(), Some(n)),
            (Err(FlagError(msg)), Some(value)) => {
                prop_assert_eq!(msg, format!("{name} expects an integer"));
                prop_assert!(value.is_none_or(|v| v.parse::<u64>().is_err()));
            }
            (got, want) => prop_assert!(false, "int {:?} for {:?}", got, want),
        }
        match (flags::text(&args, name), first_value(&args, name)) {
            (Ok(None), None) => {}
            (Ok(Some(text)), Some(Some(value))) => prop_assert_eq!(&text, value),
            (Err(FlagError(msg)), Some(None)) => {
                prop_assert_eq!(msg, format!("{name} expects a value"));
            }
            (got, want) => prop_assert!(false, "text {:?} for {:?}", got, want),
        }
        let occurrences = args.iter().filter(|a| *a == name).count();
        match flags::all(&args, name) {
            Ok(values) => prop_assert_eq!(values.len(), occurrences),
            Err(FlagError(msg)) => {
                prop_assert_eq!(msg, format!("{name} expects a value"));
                prop_assert_eq!(args.last().map(String::as_str), Some(name));
            }
        }
        prop_assert_eq!(flags::switch(&args, name), occurrences > 0);
    }

    #[test]
    fn check_accepts_exactly_the_declared_flags(
        args in proptest::collection::vec(arg(), 0..10),
        valued in proptest::collection::vec(name(), 0..3),
        switches in proptest::collection::vec(name(), 0..3),
    ) {
        match flags::check(&args, &valued, &switches) {
            Ok(()) => {
                // Every argument is a declared flag or the value after a
                // valued one.
                let mut i = 0;
                while i < args.len() {
                    let arg = args[i].as_str();
                    prop_assert!(valued.contains(&arg) || switches.contains(&arg), "{arg:?} passed");
                    i += if valued.contains(&arg) { 2 } else { 1 };
                }
            }
            Err(FlagError(msg)) => {
                let arg = msg
                    .strip_prefix("unknown argument '")
                    .and_then(|rest| rest.strip_suffix('\''));
                prop_assert!(arg.is_some_and(|a| args.iter().any(|x| x == a)), "{msg}");
            }
        }
    }
}
