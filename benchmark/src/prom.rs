//! A reader for the Prometheus text exposition the `--metrics-addr`
//! endpoints of `hermes-serve` and `hermes-coord` serve, and the blocking
//! `GET /metrics` that fetches it.

use std::io::{Read, Write};
use std::net::TcpStream;

/// One sample line: `name{label="value",…} number`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// Parses an exposition body. Comment lines (`# HELP`, `# TYPE`), blank
/// lines and lines that do not parse are skipped: a scrape is a diagnostic,
/// and one odd line must not cost the run its other counters.
pub fn parse(text: &str) -> Vec<Sample> {
    text.lines().filter_map(parse_line).collect()
}

fn parse_line(line: &str) -> Option<Sample> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (series, rest) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}')?;
            (
                (&line[..open], Some(&line[open + 1..close])),
                &line[close + 1..],
            )
        }
        None => {
            let split = line.find(char::is_whitespace)?;
            ((&line[..split], None), &line[split..])
        }
    };
    // A timestamp may follow the value; the value is the first token.
    let value = match rest.split_whitespace().next()? {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        token => token.parse().ok()?,
    };
    let (name, label_text) = series;
    Some(Sample {
        name: name.to_string(),
        labels: label_text.map(parse_labels).unwrap_or_default(),
        value,
    })
}

/// `a="x",b="y"`; values may hold escaped quotes, backslashes and commas.
fn parse_labels(text: &str) -> Vec<(String, String)> {
    let mut labels = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        let key: String = chars
            .by_ref()
            .take_while(|c| *c != '=')
            .filter(|c| !c.is_whitespace() && *c != ',')
            .collect();
        if key.is_empty() || chars.next() != Some('"') {
            return labels;
        }
        let mut value = String::new();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(escaped) => value.push(escaped),
                    None => break,
                },
                '"' => break,
                other => value.push(other),
            }
        }
        labels.push((key, value));
    }
}

/// Sum of every sample called `name`, over all label sets; 0 when absent.
pub fn sum(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

/// `GET /metrics` against `addr`, returning the parsed body.
pub fn scrape(addr: &str) -> std::io::Result<Vec<Sample>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    Ok(parse(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_labelled_and_histogram_lines() {
        let text = "\
# HELP hermes_server_epoch Published epoch
# TYPE hermes_server_epoch gauge
hermes_server_epoch 42

hermes_engine_phase_ms_total{phase=\"voting\"} 1234
hermes_engine_phase_ms_total{phase=\"sampling\"} 66
hermes_server_query_latency_us_bucket{le=\"+Inf\"} 3
hermes_shard_alive{shard=\"a,\\\"b\\\"\",addr=\"127.0.0.1:9\"} 1 1700000000
garbage line without a number
";
        let samples = parse(text);
        assert_eq!(samples.len(), 5);
        assert_eq!(sum(&samples, "hermes_server_epoch"), 42.0);
        assert_eq!(sum(&samples, "hermes_engine_phase_ms_total"), 1300.0);
        assert_eq!(samples[1].labels, vec![("phase".into(), "voting".into())]);
        assert_eq!(samples[3].labels, vec![("le".into(), "+Inf".into())]);
        assert_eq!(
            samples[4].labels,
            vec![
                ("shard".into(), "a,\"b\"".into()),
                ("addr".into(), "127.0.0.1:9".into())
            ]
        );
        assert_eq!(samples[4].value, 1.0);
        assert_eq!(sum(&samples, "absent"), 0.0);
    }

    #[test]
    fn infinities_parse() {
        let samples = parse("a +Inf\nb -Inf\n");
        assert_eq!(samples[0].value, f64::INFINITY);
        assert_eq!(samples[1].value, f64::NEG_INFINITY);
    }
}
