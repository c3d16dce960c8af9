//! The `cm-lint` binary: runs every pass ([`cm_lint::PASSES`]) over the
//! workspace and prints the findings, or the full report as JSON.
//!
//! ```text
//! cargo run -p cm-lint                     # text report
//! cargo run -p cm-lint -- --format json    # CI artifact
//! ```
//!
//! Exit status: 0 clean, 1 on findings, 2 on usage errors.

use cm_lint::{engine, extract, report, ws, PASSES};

fn main() {
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next().as_deref()) {
            ("--format", Some("text")) => json = false,
            ("--format", Some("json")) => json = true,
            ("--help" | "-h", _) => {
                println!("cm-lint [--format text|json]");
                return;
            }
            (flag, value) => {
                eprintln!("unknown argument: {flag} {}", value.unwrap_or_default());
                eprintln!("usage: cm-lint [--format text|json]");
                std::process::exit(2);
            }
        }
    }

    let root = ws::workspace_root(env!("CARGO_MANIFEST_DIR"));
    let workspace = ws::load(&root);
    let n_files = workspace.files.len();
    let model = extract::build_model(workspace.files, &workspace.deps);
    let o = engine::run(&model, PASSES);

    if json {
        print!("{}", report::render_json(&o));
    } else {
        for f in &o.findings {
            println!("{}", f.render_text());
        }
        if o.findings.is_empty() {
            println!(
                "cm-lint clean: {} fns across {n_files} files, {} quarantined site(s), \
                 {} dormant seed(s)",
                model.fns.len(),
                o.quarantined.len(),
                o.dormant
            );
        }
    }
    if !o.findings.is_empty() {
        eprintln!("cm-lint: {} finding(s)", o.findings.len());
        std::process::exit(1);
    }
}
