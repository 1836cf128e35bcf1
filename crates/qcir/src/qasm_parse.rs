//! OpenQASM 2.0 parsing (the subset [`crate::qasm::to_qasm`] emits).
//!
//! Supports one quantum and one classical register, the gate set of
//! [`crate::Gate`], and `measure q[i] -> c[j];` statements. Round-trips
//! with the exporter, which lets circuits be stored on disk and exchanged
//! with external toolchains.

use crate::{Circuit, CircuitError, Gate, Qubit};
use std::error::Error;
use std::fmt;

/// Error produced while parsing an OpenQASM 2.0 program.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseQasmError {
    /// The mandatory `OPENQASM 2.0;` header is missing.
    MissingHeader,
    /// A statement could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending statement text.
        statement: String,
    },
    /// A gate angle is NaN or infinite (`rz(nan)`, `rx(inf)`, `rz(1e999)`):
    /// it would turn the state into NaNs that sample as a confident but
    /// meaningless answer.
    NonFiniteAngle {
        /// 1-based line number.
        line: usize,
        /// The offending statement text.
        statement: String,
    },
    /// An unknown gate mnemonic.
    UnknownGate {
        /// 1-based line number.
        line: usize,
        /// The gate name encountered.
        name: String,
    },
    /// A register was declared twice or a gate used an undeclared register.
    Register {
        /// 1-based line number.
        line: usize,
        /// Description of the register problem.
        reason: String,
    },
    /// The gate's operands were invalid for the declared registers.
    Circuit {
        /// 1-based line number.
        line: usize,
        /// The underlying circuit error.
        source: CircuitError,
    },
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseQasmError::MissingHeader => write!(f, "missing OPENQASM 2.0 header"),
            ParseQasmError::Malformed { line, statement } => {
                write!(f, "line {line}: malformed statement '{statement}'")
            }
            ParseQasmError::NonFiniteAngle { line, statement } => {
                write!(f, "line {line}: gate angle is not finite in '{statement}'")
            }
            ParseQasmError::UnknownGate { line, name } => {
                write!(f, "line {line}: unknown gate '{name}'")
            }
            ParseQasmError::Register { line, reason } => {
                write!(f, "line {line}: {reason}")
            }
            ParseQasmError::Circuit { line, source } => {
                write!(f, "line {line}: {source}")
            }
        }
    }
}

impl Error for ParseQasmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseQasmError::Circuit { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// # Errors
///
/// Returns a [`ParseQasmError`] describing the first offending line.
///
/// # Examples
///
/// ```
/// use qcir::qasm;
///
/// let text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n\
///             h q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n";
/// let circuit = qasm::parse(text)?;
/// assert_eq!(circuit.num_qubits(), 2);
/// assert_eq!(circuit.len(), 3);
/// // Round trip.
/// assert_eq!(qasm::parse(&qasm::to_qasm(&circuit))?, circuit);
/// # Ok::<(), qcir::qasm::ParseQasmError>(())
/// ```
pub fn parse(text: &str) -> Result<Circuit, ParseQasmError> {
    let mut saw_header = false;
    let mut circuit: Option<Circuit> = None;
    let mut num_qubits: Option<u32> = None;
    let mut num_clbits: u32 = 0;
    let mut pending: Vec<(usize, String)> = Vec::new();

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt.starts_with("OPENQASM") {
                saw_header = true;
                continue;
            }
            if stmt.starts_with("include") {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                let n =
                    parse_register_decl(rest, "q").ok_or_else(|| ParseQasmError::Malformed {
                        line: line_no,
                        statement: stmt.to_string(),
                    })?;
                if num_qubits.is_some() {
                    return Err(ParseQasmError::Register {
                        line: line_no,
                        reason: "quantum register declared twice".into(),
                    });
                }
                num_qubits = Some(n);
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("creg") {
                let n =
                    parse_register_decl(rest, "c").ok_or_else(|| ParseQasmError::Malformed {
                        line: line_no,
                        statement: stmt.to_string(),
                    })?;
                num_clbits = n;
                continue;
            }
            pending.push((line_no, stmt.to_string()));
        }
    }

    if !saw_header {
        return Err(ParseQasmError::MissingHeader);
    }
    let num_qubits = num_qubits.ok_or(ParseQasmError::Register {
        line: 0,
        reason: "no quantum register declared".into(),
    })?;
    let mut c = circuit
        .take()
        .unwrap_or_else(|| Circuit::new(num_qubits, num_clbits));

    for (line, stmt) in pending {
        let gate = parse_statement(&stmt, line)?;
        c.add(gate)
            .map_err(|source| ParseQasmError::Circuit { line, source })?;
    }
    Ok(c)
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Parses `" q[4]"` with expected register name into the size.
fn parse_register_decl(rest: &str, name: &str) -> Option<u32> {
    let rest = rest.trim();
    let rest = rest.strip_prefix(name)?;
    let rest = rest.trim().strip_prefix('[')?.strip_suffix(']')?;
    rest.trim().parse().ok()
}

/// Parses `"q[3]"` into 3.
fn parse_operand(text: &str, register: &str) -> Option<u32> {
    let t = text.trim();
    let t = t.strip_prefix(register)?;
    let t = t.strip_prefix('[')?.strip_suffix(']')?;
    t.parse().ok()
}

fn parse_statement(stmt: &str, line: usize) -> Result<Gate, ParseQasmError> {
    let malformed = || ParseQasmError::Malformed {
        line,
        statement: stmt.to_string(),
    };

    if let Some(rest) = stmt.strip_prefix("measure") {
        let (q, c) = rest.split_once("->").ok_or_else(malformed)?;
        let q = parse_operand(q, "q").ok_or_else(malformed)?;
        let c = parse_operand(c, "c").ok_or_else(malformed)?;
        return Ok(Gate::Measure(Qubit::new(q), crate::Clbit::new(c)));
    }

    // "name(params) operands" or "name operands".
    let (head, operands_text) = stmt.split_once(' ').ok_or_else(malformed)?;
    let (name, param) = match head.split_once('(') {
        Some((n, p)) => {
            let p = p.strip_suffix(')').ok_or_else(malformed)?;
            let value: f64 = p.trim().parse().map_err(|_| malformed())?;
            if !value.is_finite() {
                return Err(ParseQasmError::NonFiniteAngle {
                    line,
                    statement: stmt.to_string(),
                });
            }
            (n, Some(value))
        }
        None => (head, None),
    };
    let operands: Vec<u32> = operands_text
        .split(',')
        .map(|o| parse_operand(o, "q"))
        .collect::<Option<Vec<u32>>>()
        .ok_or_else(malformed)?;
    let q = |i: usize| Qubit::new(operands[i]);

    let arity_check = |want: usize| -> Result<(), ParseQasmError> {
        if operands.len() == want {
            Ok(())
        } else {
            Err(malformed())
        }
    };

    let gate = match (name, param) {
        ("h", None) => {
            arity_check(1)?;
            Gate::H(q(0))
        }
        ("x", None) => {
            arity_check(1)?;
            Gate::X(q(0))
        }
        ("y", None) => {
            arity_check(1)?;
            Gate::Y(q(0))
        }
        ("z", None) => {
            arity_check(1)?;
            Gate::Z(q(0))
        }
        ("s", None) => {
            arity_check(1)?;
            Gate::S(q(0))
        }
        ("sdg", None) => {
            arity_check(1)?;
            Gate::Sdg(q(0))
        }
        ("t", None) => {
            arity_check(1)?;
            Gate::T(q(0))
        }
        ("tdg", None) => {
            arity_check(1)?;
            Gate::Tdg(q(0))
        }
        ("rx", Some(theta)) => {
            arity_check(1)?;
            Gate::Rx(q(0), theta)
        }
        ("ry", Some(theta)) => {
            arity_check(1)?;
            Gate::Ry(q(0), theta)
        }
        ("rz", Some(theta)) => {
            arity_check(1)?;
            Gate::Rz(q(0), theta)
        }
        ("cx", None) => {
            arity_check(2)?;
            Gate::Cx(q(0), q(1))
        }
        ("cz", None) => {
            arity_check(2)?;
            Gate::Cz(q(0), q(1))
        }
        ("swap", None) => {
            arity_check(2)?;
            Gate::Swap(q(0), q(1))
        }
        ("ccx", None) => {
            arity_check(3)?;
            Gate::Ccx(q(0), q(1), q(2))
        }
        ("cswap", None) => {
            arity_check(3)?;
            Gate::Cswap(q(0), q(1), q(2))
        }
        (other, _) => {
            return Err(ParseQasmError::UnknownGate {
                line,
                name: other.to_string(),
            })
        }
    };
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qasm::to_qasm;

    #[test]
    fn parses_minimal_program() {
        let c = parse("OPENQASM 2.0;\nqreg q[1];\nh q[0];").unwrap();
        assert_eq!(c.num_qubits(), 1);
        assert_eq!(c.num_clbits(), 0);
        assert_eq!(c.ops()[0].name(), "h");
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(
            parse("qreg q[1];\nh q[0];").unwrap_err(),
            ParseQasmError::MissingHeader
        );
    }

    #[test]
    fn missing_qreg_rejected() {
        assert!(matches!(
            parse("OPENQASM 2.0;\nh q[0];").unwrap_err(),
            ParseQasmError::Register { .. }
        ));
    }

    #[test]
    fn double_qreg_rejected() {
        assert!(matches!(
            parse("OPENQASM 2.0;\nqreg q[1];\nqreg q[2];").unwrap_err(),
            ParseQasmError::Register { .. }
        ));
    }

    #[test]
    fn unknown_gate_reported_with_line() {
        let err = parse("OPENQASM 2.0;\nqreg q[1];\nfrobnicate q[0];").unwrap_err();
        assert_eq!(
            err,
            ParseQasmError::UnknownGate {
                line: 3,
                name: "frobnicate".into()
            }
        );
    }

    #[test]
    fn out_of_range_operand_reports_circuit_error() {
        let err = parse("OPENQASM 2.0;\nqreg q[1];\nh q[5];").unwrap_err();
        assert!(matches!(err, ParseQasmError::Circuit { line: 3, .. }));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let c = parse("OPENQASM 2.0; // header\n\nqreg q[2]; // two qubits\n// nothing\nx q[1];")
            .unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn parses_parametric_gates() {
        let c = parse("OPENQASM 2.0;\nqreg q[1];\nrz(0.5) q[0];\nrx(-1.25) q[0];").unwrap();
        assert_eq!(c.ops()[0].param(), Some(0.5));
        assert_eq!(c.ops()[1].param(), Some(-1.25));
    }

    #[test]
    fn non_finite_angles_are_rejected_with_a_reason() {
        for angle in ["nan", "inf", "-inf", "1e999"] {
            let text = format!("OPENQASM 2.0;\nqreg q[1];\nh q[0];\nrz({angle}) q[0];");
            let err = parse(&text).unwrap_err();
            assert_eq!(
                err,
                ParseQasmError::NonFiniteAngle {
                    line: 4,
                    statement: format!("rz({angle}) q[0]"),
                },
                "{angle}"
            );
            assert!(err.to_string().contains("not finite"), "{err}");
        }
    }

    #[test]
    fn parses_measure() {
        let c = parse("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[1] -> c[0];").unwrap();
        assert!(c.ops()[0].is_measure());
    }

    #[test]
    fn roundtrip_every_gate_kind() {
        let mut c = Circuit::new(3, 3);
        c.h(0)
            .x(1)
            .y(2)
            .z(0)
            .s(1)
            .sdg(2)
            .t(0)
            .tdg(1)
            .rx(2, 0.25)
            .ry(0, -0.75)
            .rz(1, 1.5)
            .cx(0, 1)
            .cz(1, 2)
            .swap(0, 2)
            .ccx(0, 1, 2)
            .cswap(2, 0, 1)
            .measure_all();
        let text = to_qasm(&c);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn roundtrip_preserves_registers() {
        let c = Circuit::new(5, 3);
        let parsed = parse(&to_qasm(&c)).unwrap();
        assert_eq!(parsed.num_qubits(), 5);
        assert_eq!(parsed.num_clbits(), 3);
    }

    #[test]
    fn display_of_errors() {
        assert!(ParseQasmError::MissingHeader.to_string().contains("header"));
        let e = ParseQasmError::UnknownGate {
            line: 7,
            name: "xx".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }
}
