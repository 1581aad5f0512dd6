//! Plain-text rendering of figures (as value-at-time series) and tables,
//! plus JSON export for downstream plotting.

use std::io::Write as _;
use std::path::Path;

use crate::{MethodSummary, Scale};

/// Prints one figure panel as a text table: rows are grid times, columns
/// are methods (the same series a plotted figure would show).
pub fn print_series(title: &str, summaries: &[MethodSummary], time_unit: f64, unit_label: &str) {
    println!("\n### {title}");
    print!("{:>10}", format!("t ({unit_label})"));
    for s in summaries {
        print!(" {:>22}", truncate(&s.name, 22));
    }
    println!();
    let grid = &summaries[0].grid;
    for (g, &t) in grid.iter().enumerate() {
        print!("{:>10.2}", t / time_unit);
        for s in summaries {
            let m = s.curve_mean[g];
            if m.is_nan() {
                print!(" {:>22}", "-");
            } else {
                print!(" {:>22}", format!("{:.4} ± {:.4}", m, s.curve_std[g]));
            }
        }
        println!();
    }
}

/// Prints a final-performance table row per method.
pub fn print_final_table(title: &str, summaries: &[MethodSummary], metric: &str) {
    println!("\n### {title}");
    println!(
        "{:<24} {:>20} {:>20} {:>8} {:>12}",
        "method",
        format!("val {metric}"),
        format!("test {metric}"),
        "evals",
        "utilization"
    );
    for s in summaries {
        println!(
            "{:<24} {:>20} {:>20} {:>8.0} {:>11.0}%",
            truncate(&s.name, 24),
            format!("{:.4} ± {:.4}", s.mean_final(), s.std_final()),
            format!("{:.4} ± {:.4}", s.mean_test(), s.std_test()),
            s.mean_evals,
            100.0 * s.utilization
        );
    }
}

/// Writes summaries as JSON (grid, mean/std curves, finals) for plotting.
pub fn write_json(path: &Path, title: &str, summaries: &[MethodSummary]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let methods: Vec<serde_json::Value> = summaries
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name,
                "grid": s.grid,
                "curve_mean": nan_to_null(&s.curve_mean),
                "curve_std": nan_to_null(&s.curve_std),
                "final_values": s.final_values,
                "final_tests": s.final_tests,
                "utilization": s.utilization,
                "mean_evals": s.mean_evals,
            })
        })
        .collect();
    let doc = serde_json::json!({ "title": title, "methods": methods });
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{}", serde_json::to_string_pretty(&doc)?)?;
    Ok(())
}

fn nan_to_null(xs: &[f64]) -> Vec<serde_json::Value> {
    xs.iter()
        .map(|&v| {
            if v.is_finite() {
                serde_json::json!(v)
            } else {
                serde_json::Value::Null
            }
        })
        .collect()
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// Standard experiment header with scale information.
pub fn header(what: &str, scale: Scale) {
    println!("=== {what} ===");
    println!(
        "scale: {} (budgets ÷ {}, {} repetitions)",
        if scale.full { "full" } else { "reduced" },
        scale.budget_div,
        crate::n_repeats(scale)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summarize;
    use hypertune::prelude::*;

    fn dummy_summary() -> MethodSummary {
        let bench = CountingOnes::new(2, 2, 0);
        let levels = ResourceLevels::new(27.0, 3);
        let mut m = MethodKind::ARandom.build(&levels, 0);
        let r = run(m.as_mut(), &bench, &RunConfig::new(2, 300.0, 0));
        summarize("A-Random", vec![r], 300.0, 5)
    }

    #[test]
    fn json_roundtrip() {
        let s = dummy_summary();
        // Under the workspace's target directory: the library itself
        // reads no environment, its tests included.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/hypertune-report-test");
        let path = dir.join("out.json");
        write_json(&path, "test", std::slice::from_ref(&s)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc["title"], "test");
        assert_eq!(doc["methods"][0]["name"], "A-Random");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn printers_do_not_panic() {
        let s = dummy_summary();
        print_series("demo", std::slice::from_ref(&s), 60.0, "min");
        print_final_table("demo", std::slice::from_ref(&s), "err");
        header("demo", Scale::default());
    }

    #[test]
    fn truncate_handles_long_names() {
        assert_eq!(truncate("short", 10), "short");
        assert_eq!(truncate("a-very-long-method-name", 10).chars().count(), 10);
    }
}
