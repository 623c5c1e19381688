//! Exporters for the recorded time series: OpenMetrics text exposition,
//! long-format CSV, and a self-contained HTML dashboard.
//!
//! All three walk [`Recorder::sorted_series`] (catalog order, instances
//! ascending), emit the series that have a [`catalog`] row, and render
//! floats as Rust's shortest-repr `{}` Display does, so output is
//! byte-identical whenever the sample sequences are — the determinism
//! contract the golden tests in `crates/bench` pin down. The two text
//! exports append to one [`Writer`] (`Writer::f64` is those `Display`
//! bytes); the dashboard is built with `format!`.

use crate::catalog;
use crate::{Recorder, Series};
use memres_des::json::Writer;

fn label_of(s: &Series) -> String {
    match (catalog::def(s.name).and_then(|d| d.label), s.instance) {
        (Some(key), Some(i)) => format!("{{{key}=\"{i}\"}}"),
        (None, Some(i)) => format!("{{instance=\"{i}\"}}"),
        _ => String::new(),
    }
}

/// OpenMetrics-style text exposition: one `# HELP` / `# TYPE` / `# UNIT`
/// stanza per metric family, one sample line per stored point, `# EOF`
/// terminator. Every gauge is exported as a `gauge` family named
/// `memres_<series>`.
pub fn openmetrics(rec: &Recorder) -> String {
    let mut w = Writer::default();
    let mut last_name = "";
    for s in rec.sorted_series() {
        let Some(def) = catalog::def(s.name) else {
            continue;
        };
        if s.name != last_name {
            w.str("# HELP memres_").str(s.name).str(" ").str(def.help);
            w.str("\n# TYPE memres_").str(s.name).str(" gauge");
            w.str("\n# UNIT memres_").str(s.name).str(" ").str(def.unit);
            w.str("\n");
            last_name = s.name;
        }
        let label = label_of(s);
        for &(t, v) in s.points() {
            w.str("memres_").str(s.name).str(&label).str(" ");
            w.f64(v).str(" ").f64(t.as_secs_f64()).str("\n");
        }
    }
    w.str("# EOF\n");
    w.into_string()
}

/// Long-format CSV: `series,instance,t_s,value`, catalog order, instance
/// column empty for unlabeled series. This is the interchange format
/// `diff` parses back.
pub fn timeseries_csv(rec: &Recorder) -> String {
    let mut w = Writer::default();
    w.str("series,instance,t_s,value\n");
    for s in rec.sorted_series() {
        if catalog::def(s.name).is_none() {
            continue;
        }
        let inst = s.instance.map(|i| i.to_string()).unwrap_or_default();
        for &(t, v) in s.points() {
            w.str(s.name).str(",").str(&inst).str(",");
            w.f64(t.as_secs_f64()).str(",").f64(v).str("\n");
        }
    }
    w.into_string()
}

fn svg_sparkline(s: &Series, w: f64, h: f64) -> String {
    let pts = s.points();
    if pts.len() < 2 {
        return format!("<svg width=\"{w}\" height=\"{h}\"></svg>");
    }
    let t0 = pts[0].0.as_secs_f64();
    let t1 = pts[pts.len() - 1].0.as_secs_f64();
    let tspan = if t1 > t0 { t1 - t0 } else { 1.0 };
    let (vmin, vmax) = (s.hist.min().min(0.0), s.hist.max());
    let vspan = if vmax > vmin { vmax - vmin } else { 1.0 };
    let mut poly = String::new();
    for &(t, v) in pts {
        let x = (t.as_secs_f64() - t0) / tspan * (w - 2.0) + 1.0;
        let y = h - 1.0 - (v - vmin) / vspan * (h - 2.0);
        // Fixed precision keeps the dashboard bytes stable and small.
        poly.push_str(&format!("{x:.1},{y:.1} "));
    }
    format!(
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\">\
         <polyline fill=\"none\" stroke=\"#2a6\" stroke-width=\"1\" points=\"{}\"/></svg>",
        poly.trim_end()
    )
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Self-contained HTML dashboard: series grouped by layer, one row per
/// series with an inline SVG sparkline and min/mean/max/p99 from its
/// histogram, plus a critical-path attribution table. `attrib` is the
/// `(bucket, seconds)` breakdown from the trace subsystem, passed in
/// generically so this crate stays independent of `memres-trace`.
pub fn dashboard_html(title: &str, rec: &Recorder, attrib: &[(String, f64)]) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
    out.push_str(&format!("<title>{}</title>\n", html_escape(title)));
    out.push_str(
        "<style>\n\
         body{font-family:system-ui,sans-serif;margin:2em;background:#fafafa}\n\
         h1{font-size:1.4em} h2{font-size:1.1em;margin-top:1.5em;\
         border-bottom:1px solid #ccc;padding-bottom:.2em}\n\
         table{border-collapse:collapse;background:#fff}\n\
         td,th{border:1px solid #ddd;padding:.3em .6em;font-size:.85em;\
         text-align:right}\n\
         td:first-child,th:first-child{text-align:left;font-family:monospace}\n\
         </style></head><body>\n",
    );
    out.push_str(&format!("<h1>{}</h1>\n", html_escape(title)));

    if !attrib.is_empty() {
        out.push_str("<h2>critical-path attribution</h2>\n<table>\n");
        out.push_str("<tr><th>bucket</th><th>seconds</th></tr>\n");
        for (bucket, secs) in attrib {
            out.push_str(&format!(
                "<tr><td>{}</td><td>{secs}</td></tr>\n",
                html_escape(bucket)
            ));
        }
        out.push_str("</table>\n");
    }

    let sorted = rec.sorted_series();
    let mut last_layer = "";
    let mut table_open = false;
    for s in &sorted {
        let def = match catalog::def(s.name) {
            Some(d) => d,
            None => continue,
        };
        if def.layer != last_layer {
            if table_open {
                out.push_str("</table>\n");
            }
            out.push_str(&format!("<h2>{}</h2>\n<table>\n", html_escape(def.layer)));
            out.push_str(
                "<tr><th>series</th><th>unit</th><th>sparkline</th>\
                 <th>min</th><th>mean</th><th>p99</th><th>max</th>\
                 <th>last</th></tr>\n",
            );
            last_layer = def.layer;
            table_open = true;
        }
        let label = label_of(s);
        let (min, mean, max) = (s.hist.min(), s.hist.mean(), s.hist.max());
        let p99 = if s.hist.count() > 0 {
            s.hist.quantile(0.99)
        } else {
            0.0
        };
        out.push_str(&format!(
            "<tr><td>{}{}</td><td>{}</td><td>{}</td>\
             <td>{min:.4}</td><td>{mean:.4}</td><td>{p99:.4}</td>\
             <td>{max:.4}</td><td>{:.4}</td></tr>\n",
            html_escape(s.name),
            html_escape(&label),
            def.unit,
            svg_sparkline(s, 180.0, 28.0),
            s.last(),
        ));
    }
    if table_open {
        out.push_str("</table>\n");
    }
    out.push_str(&format!(
        "<p>{} series, {} sampler rounds.</p>\n</body></html>\n",
        sorted.len(),
        rec.ticks()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsConfig;
    use memres_des::time::SimTime;

    fn sample_recorder() -> Recorder {
        let mut r = Recorder::new(MetricsConfig::default());
        for i in 0..4u64 {
            let t = SimTime::from_secs_f64(i as f64 * 0.5);
            r.sample("engine_queue_len", None, t, (i * 3) as f64);
            r.sample("net_rack_up_util", Some(0), t, 0.25 * i as f64);
            r.sample("tenant_queued_jobs", Some(2), t, i as f64);
            r.tick();
        }
        r
    }

    #[test]
    fn openmetrics_has_stanzas_labels_and_eof() {
        let text = openmetrics(&sample_recorder());
        assert!(text.contains("# HELP memres_engine_queue_len "));
        assert!(text.contains("# TYPE memres_engine_queue_len gauge"));
        assert!(text.contains("# UNIT memres_engine_queue_len events"));
        assert!(text.contains("memres_net_rack_up_util{rack=\"0\"} 0.25 0.5"));
        assert!(text.contains("memres_tenant_queued_jobs{tenant=\"2\"} 3 1.5"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn csv_is_long_format_in_catalog_order() {
        let csv = timeseries_csv(&sample_recorder());
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines[0], "series,instance,t_s,value");
        assert_eq!(lines[1], "engine_queue_len,,0,0");
        assert_eq!(lines[2], "engine_queue_len,,0.5,3");
        // net comes after engine, tenant last.
        assert!(lines[5].starts_with("net_rack_up_util,0,"));
        assert!(lines.last().unwrap().starts_with("tenant_queued_jobs,2,"));
    }

    #[test]
    fn dashboard_is_self_contained_html() {
        let html = dashboard_html(
            "cell x",
            &sample_recorder(),
            &[("job".to_string(), 12.5), ("compute".to_string(), 7.0)],
        );
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("critical-path attribution"));
        assert!(html.contains("<td>compute</td><td>7</td>"));
        assert!(html.contains("engine_queue_len"));
        assert!(!html.contains("src="), "must not reference external assets");
        assert!(html.ends_with("</body></html>\n"));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample_recorder();
        let b = sample_recorder();
        assert_eq!(openmetrics(&a), openmetrics(&b));
        assert_eq!(timeseries_csv(&a), timeseries_csv(&b));
        assert_eq!(dashboard_html("t", &a, &[]), dashboard_html("t", &b, &[]));
    }
}
