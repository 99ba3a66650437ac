//! Lexer, AST and recursive-descent parser for the Hermes SQL dialect.
//!
//! Numeric argument positions accept either a literal or a `$n` placeholder
//! (1-based, PostgreSQL style). A statement with placeholders is *prepared*:
//! it parses once and is completed per execution by [`Statement::bind`],
//! which substitutes [`Value`]s for the placeholders without re-parsing.

use crate::value::{fmt_float, Value};
use std::fmt;

/// A numeric argument position: a literal value or a `$n` placeholder
/// awaiting a bind.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A literal parsed from the statement text.
    Lit(Value),
    /// The 1-based placeholder `$n`.
    Param(usize),
}

impl Scalar {
    /// Literal integer shorthand.
    pub fn int(v: i64) -> Self {
        Scalar::Lit(Value::Int(v))
    }

    /// Literal float shorthand.
    pub fn float(v: f64) -> Self {
        Scalar::Lit(Value::Float(v))
    }

    /// The scalar as an `f64`; errors on unbound placeholders and non-numeric
    /// bound values.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Scalar::Lit(v) => v
                .as_f64()
                .or_else(|| v.as_i64().map(|i| i as f64))
                .ok_or_else(|| format!("expected a number, got {v:?}")),
            Scalar::Param(n) => Err(format!("placeholder ${n} is unbound")),
        }
    }

    /// The scalar as an `i64` (integers, integral floats, timestamps and
    /// intervals as milliseconds); errors on unbound placeholders.
    pub fn as_i64(&self) -> Result<i64, String> {
        match self {
            Scalar::Lit(v) => v
                .as_i64()
                .ok_or_else(|| format!("expected an integer, got {v:?}")),
            Scalar::Param(n) => Err(format!("placeholder ${n} is unbound")),
        }
    }

    fn bind_with(&self, params: &[Value]) -> Result<Scalar, ParseError> {
        match self {
            Scalar::Lit(v) => Ok(Scalar::Lit(v.clone())),
            Scalar::Param(n) => n
                .checked_sub(1)
                .and_then(|i| params.get(i))
                .map(|v| Scalar::Lit(v.clone()))
                .ok_or_else(|| {
                    ParseError(format!(
                        "no value bound for placeholder ${n} ({} provided)",
                        params.len()
                    ))
                }),
        }
    }
}

impl From<i64> for Scalar {
    fn from(v: i64) -> Self {
        Scalar::int(v)
    }
}

impl From<f64> for Scalar {
    fn from(v: f64) -> Self {
        Scalar::float(v)
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Lit(Value::Float(v)) => f.write_str(&fmt_float(*v)),
            Scalar::Lit(v) => write!(f, "{v}"),
            Scalar::Param(n) => write!(f, "${n}"),
        }
    }
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE DATASET name;`
    CreateDataset {
        /// Dataset name.
        name: String,
    },
    /// `DROP DATASET name;`
    DropDataset {
        /// Dataset name.
        name: String,
    },
    /// `SHOW DATASETS;`
    ShowDatasets,
    /// `SHOW STATS;` — engine resource counters (page lookups, indexed
    /// partitions), plus whatever scope the executing front end adds
    /// (session parse/cache counters, server connection metrics).
    ShowStats,
    /// `SHOW TRACES;` — summaries of the traces in the serving edge's
    /// in-process span store, newest first. Embedded (non-server) sessions
    /// have no span store and answer with an empty frame.
    ShowTraces,
    /// `SHOW TRACE <id>;` — the recorded spans of one trace as a flat
    /// parent-linked tree. Embedded sessions answer with an empty frame.
    ShowTrace {
        /// The trace id to look up.
        id: Scalar,
    },
    /// `SET threads = N;` — intra-query parallelism: how many compute
    /// threads S2T/QuT/`BUILD INDEX` may fan out on (1 = serial). `N = 0` is
    /// rejected at execution with a descriptive error.
    SetThreads {
        /// The requested thread count.
        threads: Scalar,
    },
    /// `SHOW THREADS;` — the current thread count as a one-row frame.
    ShowThreads,
    /// `CHECKPOINT;` — write a snapshot of the whole engine state and
    /// truncate the write-ahead log. Only meaningful on an engine opened
    /// over a data directory; in-memory engines reject it at execution.
    Checkpoint,
    /// `BUILD INDEX ON name WITH CHUNK h HOURS [SIGMA s] [EPSILON e];`
    BuildIndex {
        /// Dataset name.
        name: String,
        /// Chunk duration in hours.
        chunk_hours: Scalar,
        /// Optional voting bandwidth σ for the per-sub-chunk S2T runs.
        sigma: Option<Scalar>,
        /// Optional clustering distance bound ε for the per-sub-chunk S2T runs.
        epsilon: Option<Scalar>,
    },
    /// `SELECT INFO(name);`
    Info {
        /// Dataset name.
        name: String,
    },
    /// `SELECT S2T(name, sigma, tau, delta, t, epsilon);` — `naive` selects
    /// the index-free variant (`S2T_NAIVE`).
    S2T {
        /// Dataset name.
        name: String,
        /// Voting kernel bandwidth σ.
        sigma: Scalar,
        /// Segmentation threshold τ.
        tau: Scalar,
        /// Sampling stop criterion δ.
        delta: Scalar,
        /// Minimum sub-trajectory duration `t` in milliseconds.
        min_duration_ms: Scalar,
        /// Clustering distance bound ε.
        epsilon: Scalar,
        /// Use the index-free voting baseline.
        naive: bool,
    },
    /// `SELECT QUT(name, Wi, We, tau, delta, t, d, gamma);` — `rebuild`
    /// selects the range-query-then-recluster strategy (`QUT_REBUILD`, which
    /// takes only `Wi, We, tau, delta, t`).
    Qut {
        /// Dataset name.
        name: String,
        /// Window start (ms).
        wi: Scalar,
        /// Window end (ms).
        we: Scalar,
        /// Segmentation threshold τ.
        tau: Scalar,
        /// Sampling stop criterion δ.
        delta: Scalar,
        /// Minimum sub-trajectory duration `t` in milliseconds.
        min_duration_ms: Scalar,
        /// Merge distance `d` (unused for the rebuild strategy).
        merge_distance: Scalar,
        /// Merge gap `γ` in milliseconds (unused for the rebuild strategy).
        merge_gap_ms: Scalar,
        /// Use the rebuild-from-scratch strategy.
        rebuild: bool,
    },
    /// `SELECT RANGE(name, Wi, We);`
    Range {
        /// Dataset name.
        name: String,
        /// Window start (ms).
        wi: Scalar,
        /// Window end (ms).
        we: Scalar,
    },
    /// `SELECT HISTOGRAM(name, Wi, We, bucket_ms);` — the cluster-cardinality
    /// time histogram of Fig. 1 (middle) over the clustering of window `W`.
    Histogram {
        /// Dataset name.
        name: String,
        /// Window start (ms).
        wi: Scalar,
        /// Window end (ms).
        we: Scalar,
        /// Histogram bucket width in milliseconds.
        bucket_ms: Scalar,
    },
}

impl Statement {
    /// Substitutes `params` (1-based: `params[0]` binds `$1`) for the
    /// placeholders, returning a fully bound copy. The receiver is unchanged,
    /// so a prepared statement binds any number of times without re-parsing.
    pub fn bind(&self, params: &[Value]) -> Result<Statement, ParseError> {
        let b = |s: &Scalar| s.bind_with(params);
        Ok(match self {
            Statement::CreateDataset { name } => Statement::CreateDataset { name: name.clone() },
            Statement::DropDataset { name } => Statement::DropDataset { name: name.clone() },
            Statement::ShowDatasets => Statement::ShowDatasets,
            Statement::ShowStats => Statement::ShowStats,
            Statement::ShowTraces => Statement::ShowTraces,
            Statement::ShowTrace { id } => Statement::ShowTrace { id: b(id)? },
            Statement::ShowThreads => Statement::ShowThreads,
            Statement::Checkpoint => Statement::Checkpoint,
            Statement::SetThreads { threads } => Statement::SetThreads {
                threads: b(threads)?,
            },
            Statement::Info { name } => Statement::Info { name: name.clone() },
            Statement::BuildIndex {
                name,
                chunk_hours,
                sigma,
                epsilon,
            } => Statement::BuildIndex {
                name: name.clone(),
                chunk_hours: b(chunk_hours)?,
                sigma: sigma.as_ref().map(&b).transpose()?,
                epsilon: epsilon.as_ref().map(&b).transpose()?,
            },
            Statement::S2T {
                name,
                sigma,
                tau,
                delta,
                min_duration_ms,
                epsilon,
                naive,
            } => Statement::S2T {
                name: name.clone(),
                sigma: b(sigma)?,
                tau: b(tau)?,
                delta: b(delta)?,
                min_duration_ms: b(min_duration_ms)?,
                epsilon: b(epsilon)?,
                naive: *naive,
            },
            Statement::Qut {
                name,
                wi,
                we,
                tau,
                delta,
                min_duration_ms,
                merge_distance,
                merge_gap_ms,
                rebuild,
            } => Statement::Qut {
                name: name.clone(),
                wi: b(wi)?,
                we: b(we)?,
                tau: b(tau)?,
                delta: b(delta)?,
                min_duration_ms: b(min_duration_ms)?,
                merge_distance: b(merge_distance)?,
                merge_gap_ms: b(merge_gap_ms)?,
                rebuild: *rebuild,
            },
            Statement::Range { name, wi, we } => Statement::Range {
                name: name.clone(),
                wi: b(wi)?,
                we: b(we)?,
            },
            Statement::Histogram {
                name,
                wi,
                we,
                bucket_ms,
            } => Statement::Histogram {
                name: name.clone(),
                wi: b(wi)?,
                we: b(we)?,
                bucket_ms: b(bucket_ms)?,
            },
        })
    }
}

impl fmt::Display for Statement {
    /// Renders the statement back to dialect text; `parse(render(stmt))`
    /// reproduces `stmt` (the round-trip property the test suite checks).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateDataset { name } => write!(f, "CREATE DATASET {name};"),
            Statement::DropDataset { name } => write!(f, "DROP DATASET {name};"),
            Statement::ShowDatasets => write!(f, "SHOW DATASETS;"),
            Statement::ShowStats => write!(f, "SHOW STATS;"),
            Statement::ShowTraces => write!(f, "SHOW TRACES;"),
            Statement::ShowTrace { id } => write!(f, "SHOW TRACE {id};"),
            Statement::ShowThreads => write!(f, "SHOW THREADS;"),
            Statement::Checkpoint => write!(f, "CHECKPOINT;"),
            Statement::SetThreads { threads } => write!(f, "SET threads = {threads};"),
            Statement::BuildIndex {
                name,
                chunk_hours,
                sigma,
                epsilon,
            } => {
                write!(f, "BUILD INDEX ON {name} WITH CHUNK {chunk_hours} HOURS")?;
                if let Some(s) = sigma {
                    write!(f, " SIGMA {s}")?;
                }
                if let Some(e) = epsilon {
                    write!(f, " EPSILON {e}")?;
                }
                write!(f, ";")
            }
            Statement::Info { name } => write!(f, "SELECT INFO({name});"),
            Statement::S2T {
                name,
                sigma,
                tau,
                delta,
                min_duration_ms,
                epsilon,
                naive,
            } => {
                let func = if *naive { "S2T_NAIVE" } else { "S2T" };
                write!(
                    f,
                    "SELECT {func}({name}, {sigma}, {tau}, {delta}, {min_duration_ms}, {epsilon});"
                )
            }
            Statement::Qut {
                name,
                wi,
                we,
                tau,
                delta,
                min_duration_ms,
                merge_distance,
                merge_gap_ms,
                rebuild,
            } => {
                if *rebuild {
                    write!(
                        f,
                        "SELECT QUT_REBUILD({name}, {wi}, {we}, {tau}, {delta}, {min_duration_ms});"
                    )
                } else {
                    write!(
                        f,
                        "SELECT QUT({name}, {wi}, {we}, {tau}, {delta}, {min_duration_ms}, {merge_distance}, {merge_gap_ms});"
                    )
                }
            }
            Statement::Range { name, wi, we } => write!(f, "SELECT RANGE({name}, {wi}, {we});"),
            Statement::Histogram {
                name,
                wi,
                we,
                bucket_ms,
            } => write!(f, "SELECT HISTOGRAM({name}, {wi}, {we}, {bucket_ms});"),
        }
    }
}

/// A parse failure with a human-readable description.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Number(Value),
    Placeholder(usize),
    LParen,
    RParen,
    Comma,
    Semicolon,
    Equals,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "'{s}'"),
            Token::Number(v) => write!(f, "number {v}"),
            Token::Placeholder(n) => write!(f, "placeholder ${n}"),
            Token::LParen => write!(f, "'('"),
            Token::RParen => write!(f, "')'"),
            Token::Comma => write!(f, "','"),
            Token::Semicolon => write!(f, "';'"),
            Token::Equals => write!(f, "'='"),
        }
    }
}

fn lex(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Equals);
                i += 1;
            }
            '$' => {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j].is_ascii_digit() {
                    j += 1;
                }
                if j == start {
                    return Err(ParseError("expected digits after '$'".into()));
                }
                let text: String = chars[start..j].iter().collect();
                let n = text
                    .parse::<usize>()
                    .map_err(|_| ParseError(format!("invalid placeholder '${text}'")))?;
                if n == 0 {
                    return Err(ParseError("placeholders are numbered from $1".into()));
                }
                tokens.push(Token::Placeholder(n));
                i = j;
            }
            '\'' | '"' => {
                let quote = c;
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != quote {
                    j += 1;
                }
                if j >= chars.len() {
                    return Err(ParseError("unterminated string literal".into()));
                }
                tokens.push(Token::Ident(chars[start..j].iter().collect()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let start = i;
                i += 1;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || ((chars[i] == '-' || chars[i] == '+')
                            && matches!(chars[i - 1], 'e' | 'E')))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                // Plain digit runs become Int; a '.', exponent, or i64
                // overflow falls back to Float.
                let value = match text.parse::<i64>() {
                    Ok(v) if !text.contains(['.', 'e', 'E']) => Value::Int(v),
                    _ => Value::Float(
                        text.parse::<f64>()
                            .map_err(|_| ParseError(format!("invalid number '{text}'")))?,
                    ),
                };
                tokens.push(Token::Number(value));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                tokens.push(Token::Ident(chars[start..i].iter().collect()));
            }
            other => return Err(ParseError(format!("unexpected character '{other}'"))),
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseError("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next()? {
            Token::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(ParseError(format!("expected '{kw}', found {other}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(ParseError(format!("expected an identifier, found {other}"))),
        }
    }

    fn expect_token(&mut self, t: Token) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == t {
            Ok(())
        } else {
            Err(ParseError(format!("expected {t}, found {got}")))
        }
    }

    fn expect_scalar(&mut self) -> Result<Scalar, ParseError> {
        match self.next()? {
            Token::Number(v) => Ok(Scalar::Lit(v)),
            Token::Placeholder(n) => Ok(Scalar::Param(n)),
            other => Err(ParseError(format!(
                "expected a number or placeholder, found {other}"
            ))),
        }
    }

    /// Parses `(name, s1, s2, …)` and checks the argument count against the
    /// function's arity, so wrong-arity calls report "expected N" instead of
    /// a token-level error.
    fn call_args(&mut self, func: &str, arity: usize) -> Result<(String, Vec<Scalar>), ParseError> {
        self.expect_token(Token::LParen)?;
        let name = self.expect_ident()?;
        let mut scalars = Vec::with_capacity(arity);
        while matches!(self.peek(), Some(Token::Comma)) {
            self.pos += 1;
            scalars.push(self.expect_scalar()?);
        }
        self.expect_token(Token::RParen)?;
        if scalars.len() != arity {
            return Err(ParseError(format!(
                "{} expects {arity} numeric argument{} after the dataset name, got {}",
                func.to_ascii_uppercase(),
                if arity == 1 { "" } else { "s" },
                scalars.len()
            )));
        }
        Ok((name, scalars))
    }

    fn finish(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), Some(Token::Semicolon)) {
            self.pos += 1;
        }
        if self.pos != self.tokens.len() {
            return Err(ParseError("trailing tokens after statement".into()));
        }
        Ok(())
    }
}

/// Parses one statement.
pub fn parse(input: &str) -> Result<Statement, ParseError> {
    let tokens = lex(input)?;
    if tokens.is_empty() {
        return Err(ParseError("empty statement".into()));
    }
    let mut p = Parser { tokens, pos: 0 };
    let head = p.expect_ident()?;
    let stmt = if head.eq_ignore_ascii_case("create") {
        p.expect_keyword("dataset")?;
        Statement::CreateDataset {
            name: p.expect_ident()?,
        }
    } else if head.eq_ignore_ascii_case("drop") {
        p.expect_keyword("dataset")?;
        Statement::DropDataset {
            name: p.expect_ident()?,
        }
    } else if head.eq_ignore_ascii_case("show") {
        match p.next()? {
            Token::Ident(s) if s.eq_ignore_ascii_case("datasets") => Statement::ShowDatasets,
            Token::Ident(s) if s.eq_ignore_ascii_case("stats") => Statement::ShowStats,
            Token::Ident(s) if s.eq_ignore_ascii_case("threads") => Statement::ShowThreads,
            Token::Ident(s) if s.eq_ignore_ascii_case("traces") => Statement::ShowTraces,
            Token::Ident(s) if s.eq_ignore_ascii_case("trace") => Statement::ShowTrace {
                id: p.expect_scalar()?,
            },
            other => {
                return Err(ParseError(format!(
                "expected 'DATASETS', 'STATS', 'THREADS', 'TRACES' or 'TRACE <id>', found {other}"
            )))
            }
        }
    } else if head.eq_ignore_ascii_case("checkpoint") {
        Statement::Checkpoint
    } else if head.eq_ignore_ascii_case("set") {
        let variable = p.expect_ident()?;
        if !variable.eq_ignore_ascii_case("threads") {
            return Err(ParseError(format!(
                "unknown session variable '{variable}' (expected 'threads')"
            )));
        }
        p.expect_token(Token::Equals)?;
        Statement::SetThreads {
            threads: p.expect_scalar()?,
        }
    } else if head.eq_ignore_ascii_case("build") {
        p.expect_keyword("index")?;
        p.expect_keyword("on")?;
        let name = p.expect_ident()?;
        p.expect_keyword("with")?;
        p.expect_keyword("chunk")?;
        let chunk_hours = p.expect_scalar()?;
        p.expect_keyword("hours")?;
        // SIGMA and EPSILON are independent optional clauses (each at most
        // once, any order), so every representable AST has a rendering.
        let mut sigma = None;
        let mut epsilon = None;
        loop {
            match p.peek() {
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("sigma") && sigma.is_none() => {
                    p.pos += 1;
                    sigma = Some(p.expect_scalar()?);
                }
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("epsilon") && epsilon.is_none() => {
                    p.pos += 1;
                    epsilon = Some(p.expect_scalar()?);
                }
                _ => break,
            }
        }
        Statement::BuildIndex {
            name,
            chunk_hours,
            sigma,
            epsilon,
        }
    } else if head.eq_ignore_ascii_case("select") {
        let func = p.expect_ident()?;
        if func.eq_ignore_ascii_case("info") {
            let (name, _) = p.call_args(&func, 0)?;
            Statement::Info { name }
        } else if func.eq_ignore_ascii_case("s2t") || func.eq_ignore_ascii_case("s2t_naive") {
            let (name, mut args) = p.call_args(&func, 5)?;
            let mut take = || args.remove(0);
            Statement::S2T {
                name,
                sigma: take(),
                tau: take(),
                delta: take(),
                min_duration_ms: take(),
                epsilon: take(),
                naive: func.eq_ignore_ascii_case("s2t_naive"),
            }
        } else if func.eq_ignore_ascii_case("qut") {
            let (name, mut args) = p.call_args(&func, 7)?;
            let mut take = || args.remove(0);
            Statement::Qut {
                name,
                wi: take(),
                we: take(),
                tau: take(),
                delta: take(),
                min_duration_ms: take(),
                merge_distance: take(),
                merge_gap_ms: take(),
                rebuild: false,
            }
        } else if func.eq_ignore_ascii_case("qut_rebuild") {
            let (name, mut args) = p.call_args(&func, 5)?;
            let mut take = || args.remove(0);
            Statement::Qut {
                name,
                wi: take(),
                we: take(),
                tau: take(),
                delta: take(),
                min_duration_ms: take(),
                merge_distance: Scalar::float(0.0),
                merge_gap_ms: Scalar::int(0),
                rebuild: true,
            }
        } else if func.eq_ignore_ascii_case("range") {
            let (name, mut args) = p.call_args(&func, 2)?;
            let mut take = || args.remove(0);
            Statement::Range {
                name,
                wi: take(),
                we: take(),
            }
        } else if func.eq_ignore_ascii_case("histogram") {
            let (name, mut args) = p.call_args(&func, 3)?;
            let mut take = || args.remove(0);
            Statement::Histogram {
                name,
                wi: take(),
                we: take(),
                bucket_ms: take(),
            }
        } else {
            return Err(ParseError(format!("unknown function '{func}'")));
        }
    } else {
        return Err(ParseError(format!("unknown statement '{head}'")));
    };
    p.finish()?;
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The highest `$n` of the statement's SQL: how many values it binds.
    fn placeholders(stmt: &Statement) -> usize {
        stmt.to_string()
            .split('$')
            .skip(1)
            .map(|rest| {
                let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                digits
                    .parse::<usize>()
                    .expect("a placeholder renders as $n")
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn ddl_statements() {
        assert_eq!(
            parse("CREATE DATASET flights;").unwrap(),
            Statement::CreateDataset {
                name: "flights".into()
            }
        );
        assert_eq!(
            parse("drop dataset flights").unwrap(),
            Statement::DropDataset {
                name: "flights".into()
            }
        );
        assert_eq!(parse("SHOW DATASETS;").unwrap(), Statement::ShowDatasets);
        assert_eq!(parse("show stats").unwrap(), Statement::ShowStats);
        assert!(parse("SHOW TABLES;")
            .unwrap_err()
            .0
            .contains("'DATASETS', 'STATS', 'THREADS', 'TRACES' or 'TRACE <id>'"));
        assert_eq!(
            parse("BUILD INDEX ON flights WITH CHUNK 6 HOURS;").unwrap(),
            Statement::BuildIndex {
                name: "flights".into(),
                chunk_hours: Scalar::int(6),
                sigma: None,
                epsilon: None,
            }
        );
        assert_eq!(
            parse("BUILD INDEX ON flights WITH CHUNK 2 HOURS SIGMA 2000 EPSILON 6000;").unwrap(),
            Statement::BuildIndex {
                name: "flights".into(),
                chunk_hours: Scalar::int(2),
                sigma: Some(Scalar::int(2000)),
                epsilon: Some(Scalar::int(6000)),
            }
        );
    }

    #[test]
    fn show_trace_parses_and_binds() {
        assert_eq!(parse("SHOW TRACES;").unwrap(), Statement::ShowTraces);
        assert_eq!(parse("show traces").unwrap(), Statement::ShowTraces);
        assert_eq!(
            parse("SHOW TRACE 42;").unwrap(),
            Statement::ShowTrace {
                id: Scalar::int(42)
            }
        );
        // The id position binds like any other scalar.
        let stmt = parse("SHOW TRACE $1;").unwrap();
        assert_eq!(placeholders(&stmt), 1);
        assert_eq!(
            stmt.bind(&[Value::Int(9)]).unwrap(),
            Statement::ShowTrace { id: Scalar::int(9) }
        );
        // A non-numeric id is a parse error, not a fallthrough.
        assert!(parse("SHOW TRACE abc;")
            .unwrap_err()
            .0
            .contains("number or placeholder"));
    }

    #[test]
    fn checkpoint_parses_and_round_trips() {
        assert_eq!(parse("CHECKPOINT;").unwrap(), Statement::Checkpoint);
        assert_eq!(parse("checkpoint").unwrap(), Statement::Checkpoint);
        let stmt = parse("CHECKPOINT;").unwrap();
        assert_eq!(placeholders(&stmt), 0);
        assert_eq!(stmt.bind(&[]).unwrap(), Statement::Checkpoint);
        assert!(parse("CHECKPOINT now;").unwrap_err().0.contains("trailing"));
    }

    #[test]
    fn set_and_show_threads() {
        assert_eq!(
            parse("SET threads = 4;").unwrap(),
            Statement::SetThreads {
                threads: Scalar::int(4)
            }
        );
        assert_eq!(
            parse("set THREADS=8").unwrap(),
            Statement::SetThreads {
                threads: Scalar::int(8)
            }
        );
        assert_eq!(parse("SHOW THREADS;").unwrap(), Statement::ShowThreads);
        // Placeholders bind like any other scalar position.
        let stmt = parse("SET threads = $1;").unwrap();
        assert_eq!(placeholders(&stmt), 1);
        let bound = stmt.bind(&[Value::Int(2)]).unwrap();
        assert_eq!(
            bound,
            Statement::SetThreads {
                threads: Scalar::int(2)
            }
        );
        // Unknown variables and missing '=' are descriptive errors.
        assert!(parse("SET sockets = 4;")
            .unwrap_err()
            .0
            .contains("unknown session variable"));
        assert!(parse("SET threads 4;").unwrap_err().0.contains("'='"));
    }

    #[test]
    fn s2t_call_matches_the_paper_signature() {
        let stmt = parse("SELECT S2T(flights, 2000, 0.35, 0.05, 120000, 5000);").unwrap();
        assert_eq!(
            stmt,
            Statement::S2T {
                name: "flights".into(),
                sigma: Scalar::int(2000),
                tau: Scalar::float(0.35),
                delta: Scalar::float(0.05),
                min_duration_ms: Scalar::int(120_000),
                epsilon: Scalar::int(5000),
                naive: false,
            }
        );
        let naive = parse("SELECT S2T_NAIVE('flights', 2000, 0.35, 0.05, 120000, 5000);").unwrap();
        assert!(matches!(naive, Statement::S2T { naive: true, .. }));
    }

    #[test]
    fn qut_call_matches_the_paper_signature() {
        // SELECT QUT(D, Wi, We, τ, δ, t, d, γ);
        let stmt =
            parse("SELECT QUT(flights, 0, 7200000, 0.35, 0.05, 120000, 3000, 1800000);").unwrap();
        assert_eq!(
            stmt,
            Statement::Qut {
                name: "flights".into(),
                wi: Scalar::int(0),
                we: Scalar::int(7_200_000),
                tau: Scalar::float(0.35),
                delta: Scalar::float(0.05),
                min_duration_ms: Scalar::int(120_000),
                merge_distance: Scalar::int(3000),
                merge_gap_ms: Scalar::int(1_800_000),
                rebuild: false,
            }
        );
        let rebuild =
            parse("SELECT QUT_REBUILD(flights, 0, 7200000, 0.35, 0.05, 120000);").unwrap();
        assert!(matches!(rebuild, Statement::Qut { rebuild: true, .. }));
    }

    #[test]
    fn range_and_info() {
        assert_eq!(
            parse("SELECT RANGE(flights, 0, 3600000);").unwrap(),
            Statement::Range {
                name: "flights".into(),
                wi: Scalar::int(0),
                we: Scalar::int(3_600_000)
            }
        );
        assert_eq!(
            parse("SELECT INFO(flights);").unwrap(),
            Statement::Info {
                name: "flights".into()
            }
        );
        assert_eq!(
            parse("SELECT HISTOGRAM(flights, 0, 7200000, 900000);").unwrap(),
            Statement::Histogram {
                name: "flights".into(),
                wi: Scalar::int(0),
                we: Scalar::int(7_200_000),
                bucket_ms: Scalar::int(900_000)
            }
        );
    }

    #[test]
    fn placeholders_parse_and_bind() {
        let stmt =
            parse("SELECT QUT(flights, $1, $2, 0.35, 0.05, 120000, 3000, 1800000);").unwrap();
        assert_eq!(placeholders(&stmt), 2);

        let bound = stmt.bind(&[Value::Int(0), Value::Int(7_200_000)]).unwrap();
        assert_eq!(placeholders(&bound), 0);
        assert!(matches!(
            bound,
            Statement::Qut { ref wi, ref we, .. }
                if *wi == Scalar::int(0) && *we == Scalar::int(7_200_000)
        ));
        // The prepared statement is unchanged and binds again.
        let again = stmt
            .bind(&[
                Value::Timestamp(hermes_trajectory::Timestamp(100)),
                Value::Timestamp(hermes_trajectory::Timestamp(200)),
            ])
            .unwrap();
        assert_eq!(placeholders(&again), 0);
        assert_eq!(placeholders(&stmt), 2);

        // Binding with too few values is a descriptive error.
        let err = stmt.bind(&[Value::Int(0)]).unwrap_err();
        assert!(err.0.contains("$2"), "{err}");
        // Unbound placeholders refuse scalar conversion.
        if let Statement::Qut { wi, .. } = &stmt {
            assert!(wi.as_i64().unwrap_err().contains("unbound"));
            assert!(wi.as_f64().unwrap_err().contains("unbound"));
        }
    }

    #[test]
    fn hand_built_param_zero_is_a_bind_error_not_a_panic() {
        let stmt = Statement::Range {
            name: "flights".into(),
            wi: Scalar::Param(0),
            we: Scalar::int(10),
        };
        let err = stmt.bind(&[Value::Int(1)]).unwrap_err();
        assert!(err.0.contains("$0"), "{err}");
    }

    #[test]
    fn sigma_and_epsilon_clauses_are_independent() {
        let sigma_only = parse("BUILD INDEX ON d WITH CHUNK 2 HOURS SIGMA 900;").unwrap();
        assert_eq!(
            sigma_only,
            Statement::BuildIndex {
                name: "d".into(),
                chunk_hours: Scalar::int(2),
                sigma: Some(Scalar::int(900)),
                epsilon: None,
            }
        );
        let epsilon_only = parse("BUILD INDEX ON d WITH CHUNK 2 HOURS EPSILON 400;").unwrap();
        assert!(matches!(
            epsilon_only,
            Statement::BuildIndex {
                sigma: None,
                epsilon: Some(_),
                ..
            }
        ));
        // Any order parses; rendering canonicalizes to SIGMA then EPSILON and
        // round-trips, including the half-set forms.
        let both = parse("BUILD INDEX ON d WITH CHUNK 2 HOURS EPSILON 400 SIGMA 900;").unwrap();
        for stmt in [sigma_only, epsilon_only, both] {
            assert_eq!(parse(&stmt.to_string()).unwrap(), stmt);
        }
        // Duplicate clauses are rejected.
        assert!(parse("BUILD INDEX ON d WITH CHUNK 2 HOURS SIGMA 1 SIGMA 2;").is_err());
    }

    #[test]
    fn placeholder_lexing_errors() {
        assert!(parse("SELECT RANGE(flights, $, 1);")
            .unwrap_err()
            .0
            .contains("digits"));
        assert!(parse("SELECT RANGE(flights, $0, 1);")
            .unwrap_err()
            .0
            .contains("numbered from $1"));
    }

    #[test]
    fn wrong_arity_is_reported_with_the_expected_count() {
        let err = parse("SELECT S2T(flights, 1, 2);").unwrap_err();
        assert!(err.0.contains("S2T expects 5"), "{err}");
        assert!(err.0.contains("got 2"), "{err}");
        let err = parse("SELECT QUT(flights, 0, 1, 2, 3, 4, 5, 6, 7);").unwrap_err();
        assert!(err.0.contains("QUT expects 7"), "{err}");
        let err = parse("SELECT INFO(flights, 9);").unwrap_err();
        assert!(err.0.contains("expects 0"), "{err}");
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse("").unwrap_err().0.contains("empty"));
        assert!(parse("SELECT NOPE(flights);")
            .unwrap_err()
            .0
            .contains("unknown function"));
        assert!(parse("CREATE TABLE x;")
            .unwrap_err()
            .0
            .contains("expected 'dataset'"));
        assert!(parse("SELECT RANGE(flights, 0, 10) extra;")
            .unwrap_err()
            .0
            .contains("trailing"));
        assert!(parse("SELECT RANGE(flights, 0, 'ten');").is_err());
        assert!(parse("SELECT INFO('unterminated);")
            .unwrap_err()
            .0
            .contains("unterminated"));
        assert!(parse("€").is_err());
    }

    #[test]
    fn negative_and_scientific_numbers() {
        let stmt = parse("SELECT RANGE(flights, -3600000, 1e7);").unwrap();
        assert_eq!(
            stmt,
            Statement::Range {
                name: "flights".into(),
                wi: Scalar::int(-3_600_000),
                we: Scalar::float(10_000_000.0)
            }
        );
        // Negative exponents keep their sign inside the number token.
        let stmt = parse("SELECT RANGE(flights, 1e-3, 2E+4);").unwrap();
        assert_eq!(
            stmt,
            Statement::Range {
                name: "flights".into(),
                wi: Scalar::float(0.001),
                we: Scalar::float(20_000.0)
            }
        );
    }

    #[test]
    fn statements_render_back_to_parseable_text() {
        for sql in [
            "CREATE DATASET flights;",
            "DROP DATASET flights;",
            "SHOW DATASETS;",
            "SHOW STATS;",
            "SHOW THREADS;",
            "SHOW TRACES;",
            "SHOW TRACE 7;",
            "SHOW TRACE $1;",
            "CHECKPOINT;",
            "SET threads = 4;",
            "SET threads = $1;",
            "BUILD INDEX ON flights WITH CHUNK 6 HOURS;",
            "BUILD INDEX ON flights WITH CHUNK 2 HOURS SIGMA 2000 EPSILON 6000;",
            "SELECT INFO(flights);",
            "SELECT S2T(flights, 2000, 0.35, 0.05, 120000, 5000);",
            "SELECT S2T_NAIVE(flights, 2000, 0.35, 0.05, 120000, 5000);",
            "SELECT QUT(flights, $1, $2, 0.35, 0.05, 120000, 3000, 1800000);",
            "SELECT QUT_REBUILD(flights, 0, 7200000, 0.35, 0.05, 120000);",
            "SELECT RANGE(flights, -5, 1e7);",
            "SELECT HISTOGRAM(flights, 0, 7200000, 900000);",
        ] {
            let stmt = parse(sql).unwrap();
            let rendered = stmt.to_string();
            assert_eq!(
                parse(&rendered).unwrap(),
                stmt,
                "render of {sql}: {rendered}"
            );
        }
    }
}
