//! Streaming per-run sinks: each seed's outcome goes to disk as it
//! completes, so million-run sweeps never accumulate in memory.
//!
//! A [`RunSink`] receives every [`RunOutcome`] in completion order
//! (pair with [`crate::Sweep::stream_into`], which drops outcomes after
//! the sink has seen them). Two formats ship:
//!
//! * [`CsvSink`] — one header (derived from the first outcome's sweep
//!   axes and task count) plus one row per run;
//! * [`JsonlSink`] — one self-describing JSON object per line, the
//!   format downstream analysis pipelines append-merge.

use std::io::{self, Write};
use std::path::Path;

use crate::scenario::sweep::RunOutcome;

/// A consumer of per-run outcomes, fed in completion order.
pub trait RunSink {
    /// Consumes one run's outcome.
    fn on_outcome(&mut self, outcome: &RunOutcome) -> io::Result<()>;

    /// Flushes buffered output (call once after the last outcome).
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Streams outcomes as CSV rows.
///
/// Columns: `index,seed,<one column per sweep axis>,rounds,avg_regret,`
/// `total_regret,max_instant_regret,final_regret,load_0..load_{k−1}`.
/// The header is derived from the first outcome; later outcomes must
/// have the same axes and task count (a sweep guarantees this).
pub struct CsvSink<W: Write> {
    out: W,
    header_written: bool,
    axes: Vec<String>,
    num_loads: usize,
}

impl CsvSink<io::BufWriter<std::fs::File>> {
    /// Creates (or truncates) a CSV file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(Self::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> CsvSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        Self {
            out,
            header_written: false,
            axes: Vec::new(),
            num_loads: 0,
        }
    }

    /// Unwraps the underlying writer (call [`RunSink::finish`] first).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> RunSink for CsvSink<W> {
    fn on_outcome(&mut self, outcome: &RunOutcome) -> io::Result<()> {
        if !self.header_written {
            self.axes = outcome
                .params
                .iter()
                .map(|(name, _)| name.clone())
                .collect();
            self.num_loads = outcome.final_loads.len();
            write!(self.out, "index,seed")?;
            for axis in &self.axes {
                write!(self.out, ",{}", axis.replace([',', '\n', '\r'], "_"))?;
            }
            write!(
                self.out,
                ",rounds,avg_regret,total_regret,max_instant_regret,final_regret"
            )?;
            for j in 0..self.num_loads {
                write!(self.out, ",load_{j}")?;
            }
            writeln!(self.out)?;
            self.header_written = true;
        }
        if outcome.params.len() != self.axes.len() || outcome.final_loads.len() != self.num_loads {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "outcome shape disagrees with the sink's header",
            ));
        }
        write!(self.out, "{},{}", outcome.index, outcome.seed)?;
        for (_, value) in outcome.params.iter() {
            // Labeled axis values may contain arbitrary text; keep the
            // row parseable.
            write!(
                self.out,
                ",{}",
                value.to_string().replace([',', '\n', '\r'], "_")
            )?;
        }
        write!(
            self.out,
            ",{},{},{},{},{}",
            outcome.rounds,
            outcome.summary.average_regret(),
            outcome.summary.total_regret(),
            outcome.summary.max_instant_regret(),
            outcome.final_regret
        )?;
        for load in &outcome.final_loads {
            write!(self.out, ",{load}")?;
        }
        writeln!(self.out)
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Streams outcomes as JSON Lines: one compact object per run.
pub struct JsonlSink<W: Write> {
    out: W,
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates (or truncates) a JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        Ok(Self::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Unwraps the underlying writer (call [`RunSink::finish`] first).
    pub fn into_inner(self) -> W {
        self.out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl<W: Write> RunSink for JsonlSink<W> {
    fn on_outcome(&mut self, outcome: &RunOutcome) -> io::Result<()> {
        write!(
            self.out,
            "{{\"index\":{},\"seed\":{}",
            outcome.index, outcome.seed
        )?;
        if !outcome.params.is_empty() {
            write!(self.out, ",\"params\":{{")?;
            for (i, (name, value)) in outcome.params.iter().enumerate() {
                if i > 0 {
                    write!(self.out, ",")?;
                }
                match value {
                    crate::scenario::sweep::AxisValue::Float(x) => {
                        write!(self.out, "\"{}\":{x}", json_escape(name))?;
                    }
                    crate::scenario::sweep::AxisValue::Text(s) => {
                        write!(self.out, "\"{}\":\"{}\"", json_escape(name), json_escape(s))?;
                    }
                }
            }
            write!(self.out, "}}")?;
        }
        write!(
            self.out,
            ",\"rounds\":{},\"avg_regret\":{},\"total_regret\":{},\
             \"max_instant_regret\":{},\"final_regret\":{},\"final_loads\":[",
            outcome.rounds,
            outcome.summary.average_regret(),
            outcome.summary.total_regret(),
            outcome.summary.max_instant_regret(),
            outcome.final_regret
        )?;
        for (j, load) in outcome.final_loads.iter().enumerate() {
            if j > 0 {
                write!(self.out, ",")?;
            }
            write!(self.out, "{load}")?;
        }
        writeln!(self.out, "]}}")
    }

    fn finish(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::RunSummary;

    fn outcome(index: usize, seed: u64) -> RunOutcome {
        RunOutcome {
            index,
            seed,
            params: vec![("lambda".into(), crate::scenario::AxisValue::Float(2.0))].into(),
            rounds: 10,
            summary: RunSummary::new(),
            final_regret: 3,
            final_loads: vec![5, 7],
            cached: false,
        }
    }

    #[test]
    fn labeled_params_serialize_in_both_formats() {
        let mut o = outcome(0, 1);
        o.params = vec![(
            "controller".into(),
            crate::scenario::AxisValue::Text("ant, desync".into()),
        )]
        .into();
        let mut csv = CsvSink::new(Vec::new());
        csv.on_outcome(&o).unwrap();
        let text = String::from_utf8(csv.out).unwrap();
        // Commas inside the label are sanitized, keeping the row shape.
        assert!(
            text.lines().nth(1).unwrap().contains("ant_ desync"),
            "{text}"
        );
        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.on_outcome(&o).unwrap();
        let text = String::from_utf8(jsonl.out).unwrap();
        assert!(
            text.contains("\"controller\":\"ant, desync\""),
            "labels must be quoted JSON strings: {text}"
        );
    }

    #[test]
    fn csv_header_and_rows() {
        let mut sink = CsvSink::new(Vec::new());
        sink.on_outcome(&outcome(0, 1)).unwrap();
        sink.on_outcome(&outcome(1, 2)).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "index,seed,lambda,rounds,avg_regret,total_regret,max_instant_regret,final_regret,load_0,load_1"
        );
        assert_eq!(lines.next().unwrap(), "0,1,2,10,0,0,0,3,5,7");
        assert_eq!(lines.count(), 1);
    }

    #[test]
    fn csv_rejects_shape_drift() {
        let mut sink = CsvSink::new(Vec::new());
        sink.on_outcome(&outcome(0, 1)).unwrap();
        let mut bad = outcome(1, 2);
        bad.final_loads.push(9);
        assert!(sink.on_outcome(&bad).is_err());
    }

    #[test]
    fn jsonl_lines_are_self_describing() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_outcome(&outcome(3, 9)).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.out).unwrap();
        assert_eq!(
            text,
            "{\"index\":3,\"seed\":9,\"params\":{\"lambda\":2},\"rounds\":10,\
             \"avg_regret\":0,\"total_regret\":0,\"max_instant_regret\":0,\
             \"final_regret\":3,\"final_loads\":[5,7]}\n"
        );
    }
}
