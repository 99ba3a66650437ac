//! The static shard map: who owns which half-open temporal slice.
//!
//! A shard map assigns every instant of the time axis to exactly one shard.
//! Slices are half-open `[start_ms, end_ms)` intervals that must be sorted,
//! contiguous and cover the whole axis (`i64::MIN ..= i64::MAX` — an
//! `end_ms` of `i64::MAX` is treated as unbounded, mirroring
//! [`hermes_retratree::OwnedSlice`]). Interior boundaries must additionally
//! be multiples of the `BUILD INDEX` chunk duration; the coordinator checks
//! that at `BUILD INDEX` time because the chunk duration is a statement
//! parameter, not a map property (see `docs/SHARDING.md` for why alignment
//! is what makes sharded answers bit-identical).
//!
//! Two input syntaxes produce the same [`ShardSpec`]s:
//!
//! - repeated `--shard name=addr,addr2@start..end` flags, where either bound
//!   may be empty, `min` or `max`;
//! - a TOML-subset map file of `[[shard]]` tables with `name`, `addr` and
//!   optional `start_ms` / `end_ms` keys (defaulting to the unbounded ends).
//!
//! The address part is a comma-separated **replica set**: the first endpoint
//! is the primary, the rest are replicas holding (by the write fan-out
//! invariant, `docs/SHARDING.md`) byte-identical state. Reads prefer the
//! primary and fail over; writes go to every endpoint all-or-error.

use std::fmt;

/// One shard of the deployment: a display name, the replica set of
/// `host:port` endpoints serving its slice (primary first), and the
/// half-open `[start_ms, end_ms)` temporal slice it owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard name, used in error frames and `SHOW STATS` scopes.
    pub name: String,
    /// `host:port` of the shard's primary `hermes-serve` listener.
    pub addr: String,
    /// `host:port` of each replica listener (may be empty — an unreplicated
    /// shard). Replicas receive every write the primary receives and
    /// therefore answer reads bit-identically.
    pub replicas: Vec<String>,
    /// Inclusive start of the owned slice in epoch milliseconds.
    pub start_ms: i64,
    /// Exclusive end of the owned slice (`i64::MAX` = unbounded).
    pub end_ms: i64,
}

impl ShardSpec {
    /// Every endpoint of the replica set, primary first.
    pub fn endpoints(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.addr.as_str()).chain(self.replicas.iter().map(String::as_str))
    }
}

/// Splits a comma-separated endpoint list into `(primary, replicas)`.
fn split_endpoints(list: &str) -> (String, Vec<String>) {
    let mut parts = list.split(',').map(|a| a.trim().to_string());
    let primary = parts.next().unwrap_or_default();
    (primary, parts.collect())
}

/// A malformed or inconsistent shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMapError(pub String);

impl fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard map error: {}", self.0)
    }
}

impl std::error::Error for ShardMapError {}

fn err<T>(message: impl Into<String>) -> Result<T, ShardMapError> {
    Err(ShardMapError(message.into()))
}

/// Parses one `--shard` flag value: `name=addr[,addr2,…][@start..end]`,
/// where either bound may be empty, `min` or `max` (both default to
/// unbounded) and the address list is the shard's replica set, primary
/// first.
///
/// ```
/// use hermes_coord::parse_shard_flag;
/// let s = parse_shard_flag("early=127.0.0.1:9001,127.0.0.1:9101@min..3600000").unwrap();
/// assert_eq!((s.start_ms, s.end_ms), (i64::MIN, 3_600_000));
/// assert_eq!(s.addr, "127.0.0.1:9001");
/// assert_eq!(s.replicas, vec!["127.0.0.1:9101".to_string()]);
/// ```
pub fn parse_shard_flag(value: &str) -> Result<ShardSpec, ShardMapError> {
    let Some((name, rest)) = value.split_once('=') else {
        return err(format!(
            "--shard expects name=addr[@start..end], got '{value}'"
        ));
    };
    let (addr, range) = match rest.split_once('@') {
        Some((addr, range)) => (addr, Some(range)),
        None => (rest, None),
    };
    let (start_ms, end_ms) = match range {
        None => (i64::MIN, i64::MAX),
        Some(range) => {
            let Some((lo, hi)) = range.split_once("..") else {
                return err(format!(
                    "shard '{name}': slice '{range}' is not of the form start..end"
                ));
            };
            (
                parse_bound(name, lo, i64::MIN)?,
                parse_bound(name, hi, i64::MAX)?,
            )
        }
    };
    let (primary, replicas) = split_endpoints(addr);
    let spec = ShardSpec {
        name: name.trim().to_string(),
        addr: primary,
        replicas,
        start_ms,
        end_ms,
    };
    check_spec(&spec)?;
    Ok(spec)
}

fn parse_bound(shard: &str, text: &str, unbounded: i64) -> Result<i64, ShardMapError> {
    match text.trim() {
        "" => Ok(unbounded),
        "min" => Ok(i64::MIN),
        "max" => Ok(i64::MAX),
        t => match t.parse() {
            Ok(ms) => Ok(ms),
            Err(_) => err(format!(
                "shard '{shard}': slice bound '{t}' is not an integer, 'min', 'max' or empty"
            )),
        },
    }
}

/// Parses a shard-map file: a TOML subset of `[[shard]]` tables with
/// `name = "…"`, `addr = "…"` and optional integer `start_ms` / `end_ms`
/// keys. `#` comments and blank lines are ignored. The result still needs
/// [`validate_shard_map`].
pub fn parse_shard_map(text: &str) -> Result<Vec<ShardSpec>, ShardMapError> {
    let mut shards = Vec::new();
    let mut current: Option<ShardSpec> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim().to_string();
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if line == "[[shard]]" {
            if let Some(spec) = current.take() {
                check_spec(&spec)?;
                shards.push(spec);
            }
            current = Some(ShardSpec {
                name: String::new(),
                addr: String::new(),
                replicas: Vec::new(),
                start_ms: i64::MIN,
                end_ms: i64::MAX,
            });
            continue;
        }
        if line.starts_with('[') {
            return err(format!(
                "line {lineno}: only [[shard]] tables are supported"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return err(format!("line {lineno}: expected key = value, got '{line}'"));
        };
        let Some(spec) = current.as_mut() else {
            return err(format!("line {lineno}: key outside a [[shard]] table"));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "name" => spec.name = parse_toml_string(value, lineno)?,
            "addr" => {
                // Same comma-separated replica-set syntax as the flag form.
                let (primary, replicas) = split_endpoints(&parse_toml_string(value, lineno)?);
                spec.addr = primary;
                spec.replicas = replicas;
            }
            "start_ms" => spec.start_ms = parse_toml_int(value, lineno)?,
            "end_ms" => spec.end_ms = parse_toml_int(value, lineno)?,
            other => {
                return err(format!(
                    "line {lineno}: unknown key '{other}' (expected name, addr, start_ms or end_ms)"
                ))
            }
        }
    }
    if let Some(spec) = current.take() {
        check_spec(&spec)?;
        shards.push(spec);
    }
    Ok(shards)
}

/// Drops a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_string(value: &str, lineno: usize) -> Result<String, ShardMapError> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| ShardMapError(format!("line {lineno}: expected a \"quoted\" string")))?;
    if inner.contains('"') {
        return err(format!("line {lineno}: embedded quotes are not supported"));
    }
    Ok(inner.to_string())
}

fn parse_toml_int(value: &str, lineno: usize) -> Result<i64, ShardMapError> {
    // TOML allows underscores as digit separators; accept them.
    value
        .replace('_', "")
        .parse()
        .map_err(|_| ShardMapError(format!("line {lineno}: expected an integer, got '{value}'")))
}

fn check_spec(spec: &ShardSpec) -> Result<(), ShardMapError> {
    if spec.name.is_empty() {
        return err("every shard needs a non-empty name");
    }
    if spec.addr.is_empty() {
        return err(format!("shard '{}' needs an addr", spec.name));
    }
    if spec.replicas.iter().any(String::is_empty) {
        return err(format!(
            "shard '{}': empty endpoint in the replica list",
            spec.name
        ));
    }
    let mut endpoints: Vec<&str> = spec.endpoints().collect();
    endpoints.sort_unstable();
    for pair in endpoints.windows(2) {
        if pair[0] == pair[1] {
            return err(format!(
                "shard '{}': endpoint '{}' appears twice in the replica set",
                spec.name, pair[0]
            ));
        }
    }
    if spec.start_ms >= spec.end_ms {
        return err(format!(
            "shard '{}': slice start {} must be below its end {}",
            spec.name, spec.start_ms, spec.end_ms
        ));
    }
    Ok(())
}

/// Validates and normalizes a complete map: at least one shard, unique
/// names, and slices that — once sorted by start, which this function does
/// in place — are contiguous and cover the whole time axis. These are the
/// preconditions of the bit-exactness argument in `docs/SHARDING.md`, so a
/// hole or overlap is rejected up front rather than silently mis-answering.
pub fn validate_shard_map(shards: &mut [ShardSpec]) -> Result<(), ShardMapError> {
    if shards.is_empty() {
        return err("at least one shard is required");
    }
    for spec in shards.iter() {
        check_spec(spec)?;
    }
    shards.sort_by_key(|s| s.start_ms);
    let mut names: Vec<&str> = shards.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        if pair[0] == pair[1] {
            return err(format!("duplicate shard name '{}'", pair[0]));
        }
    }
    if shards[0].start_ms != i64::MIN {
        return err(format!(
            "the first slice must start unbounded (min), got {} — every instant needs an owner",
            shards[0].start_ms
        ));
    }
    if shards[shards.len() - 1].end_ms != i64::MAX {
        return err(format!(
            "the last slice must end unbounded (max), got {} — every instant needs an owner",
            shards[shards.len() - 1].end_ms
        ));
    }
    for pair in shards.windows(2) {
        if pair[0].end_ms != pair[1].start_ms {
            return err(format!(
                "slices of '{}' and '{}' are not contiguous: {} ends at {} but {} starts at {}",
                pair[0].name,
                pair[1].name,
                pair[0].name,
                pair[0].end_ms,
                pair[1].name,
                pair[1].start_ms
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, start: i64, end: i64) -> ShardSpec {
        ShardSpec {
            name: name.into(),
            addr: "127.0.0.1:1".into(),
            replicas: Vec::new(),
            start_ms: start,
            end_ms: end,
        }
    }

    #[test]
    fn flag_syntax_round_trips() {
        let s = parse_shard_flag("alpha=10.0.0.1:8650").unwrap();
        assert_eq!(s.name, "alpha");
        assert_eq!(s.addr, "10.0.0.1:8650");
        assert_eq!((s.start_ms, s.end_ms), (i64::MIN, i64::MAX));

        let s = parse_shard_flag("b=h:1@min..3600000").unwrap();
        assert_eq!((s.start_ms, s.end_ms), (i64::MIN, 3_600_000));
        let s = parse_shard_flag("c=h:1@3600000..max").unwrap();
        assert_eq!((s.start_ms, s.end_ms), (3_600_000, i64::MAX));
        let s = parse_shard_flag("d=h:1@-100..100").unwrap();
        assert_eq!((s.start_ms, s.end_ms), (-100, 100));
        let s = parse_shard_flag("e=h:1@..").unwrap();
        assert_eq!((s.start_ms, s.end_ms), (i64::MIN, i64::MAX));
    }

    #[test]
    fn replica_sets_parse_in_both_syntaxes() {
        let s = parse_shard_flag("a=h:1, h:2 ,h:3@min..0").unwrap();
        assert_eq!(s.addr, "h:1");
        assert_eq!(s.replicas, vec!["h:2".to_string(), "h:3".to_string()]);
        assert_eq!(s.endpoints().collect::<Vec<_>>(), vec!["h:1", "h:2", "h:3"]);

        let mut shards = parse_shard_map(
            "[[shard]]\nname = \"a\"\naddr = \"h:1,h:2\"\nend_ms = 0\n\
             [[shard]]\nname = \"b\"\naddr = \"h:3\"\nstart_ms = 0\n",
        )
        .unwrap();
        validate_shard_map(&mut shards).unwrap();
        assert_eq!(shards[0].replicas, vec!["h:2".to_string()]);
        assert!(shards[1].replicas.is_empty());

        // Duplicate or empty endpoints are rejected.
        assert!(parse_shard_flag("a=h:1,h:1").is_err());
        assert!(parse_shard_flag("a=h:1,,h:2").is_err());
        assert!(parse_shard_flag("a=,h:2").is_err());
    }

    #[test]
    fn flag_syntax_rejects_nonsense() {
        assert!(parse_shard_flag("no-equals").is_err());
        assert!(parse_shard_flag("a=h:1@123").is_err());
        assert!(parse_shard_flag("a=h:1@x..y").is_err());
        assert!(parse_shard_flag("a=h:1@100..100").is_err());
        assert!(parse_shard_flag("=h:1").is_err());
        assert!(parse_shard_flag("a=").is_err());
    }

    #[test]
    fn toml_subset_parses() {
        let text = r#"
            # two shards split at the one-hour mark
            [[shard]]
            name = "early"            # owns everything before t = 1h
            addr = "127.0.0.1:9001"
            end_ms = 3_600_000

            [[shard]]
            name = "late"
            addr = "127.0.0.1:9002"
            start_ms = 3600000
        "#;
        let mut shards = parse_shard_map(text).unwrap();
        validate_shard_map(&mut shards).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].name, "early");
        assert_eq!(
            (shards[0].start_ms, shards[0].end_ms),
            (i64::MIN, 3_600_000)
        );
        assert_eq!(
            (shards[1].start_ms, shards[1].end_ms),
            (3_600_000, i64::MAX)
        );
    }

    #[test]
    fn toml_subset_rejects_malformed_input() {
        assert!(parse_shard_map("name = \"orphan\"").is_err());
        assert!(parse_shard_map("[[shard]]\nname = unquoted").is_err());
        assert!(parse_shard_map("[[shard]]\nbogus = 1").is_err());
        assert!(parse_shard_map("[server]\nport = 1").is_err());
        assert!(parse_shard_map("[[shard]]\nname = \"a\"").is_err()); // no addr
    }

    #[test]
    fn validation_enforces_a_partition_of_the_axis() {
        // Gap.
        let mut gap = vec![spec("a", i64::MIN, 100), spec("b", 200, i64::MAX)];
        assert!(validate_shard_map(&mut gap).is_err());
        // Overlap.
        let mut overlap = vec![spec("a", i64::MIN, 200), spec("b", 100, i64::MAX)];
        assert!(validate_shard_map(&mut overlap).is_err());
        // Bounded ends.
        let mut bounded = vec![spec("a", 0, i64::MAX)];
        assert!(validate_shard_map(&mut bounded).is_err());
        let mut bounded = vec![spec("a", i64::MIN, 0)];
        assert!(validate_shard_map(&mut bounded).is_err());
        // Duplicate names.
        let mut dup = vec![spec("a", i64::MIN, 0), spec("a", 0, i64::MAX)];
        assert!(validate_shard_map(&mut dup).is_err());
        // Empty.
        assert!(validate_shard_map(&mut Vec::new()).is_err());
        // A valid two-way split sorts and passes.
        let mut ok = vec![spec("late", 0, i64::MAX), spec("early", i64::MIN, 0)];
        validate_shard_map(&mut ok).unwrap();
        assert_eq!(ok[0].name, "early");
    }
}
