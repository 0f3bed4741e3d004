//! Validate JSON documents against one of the checked-in schemas.
//!
//! ```text
//! validate_json [--jsonl] <schema.json> <doc.json> [<doc.json> ...]
//! ```
//!
//! Uses the in-tree validator ([`xlmc::json::validate_against_schema`]),
//! which supports the subset of JSON Schema the `schemas/` files use.
//! With `--jsonl` each input is treated as line-delimited JSON and every
//! non-empty line is validated against the schema on its own (the mode CI
//! uses for the `--events` lifecycle stream). Exits 0 when every document
//! validates, 1 on the first violation, 2 on usage or I/O errors. CI runs
//! this over the metrics, trace, and events files the smoke campaign
//! writes.

use xlmc::json::{validate_against_schema, JsonValue};

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn load(path: &str) -> JsonValue {
    JsonValue::parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("error: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jsonl = args.first().is_some_and(|a| a == "--jsonl");
    if jsonl {
        args.remove(0);
    }
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown flag {flag}");
        std::process::exit(2);
    }
    if args.len() < 2 {
        eprintln!("usage: validate_json [--jsonl] <schema.json> <doc.json> [<doc.json> ...]");
        std::process::exit(2);
    }
    let schema = load(&args[0]);
    let mut failed = false;
    for path in &args[1..] {
        if jsonl {
            let src = read(path);
            let mut lines = 0usize;
            let mut ok = true;
            for (i, line) in src.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                lines += 1;
                let doc = JsonValue::parse(line).unwrap_or_else(|e| {
                    eprintln!("error: {path}:{} is not valid JSON: {e}", i + 1);
                    std::process::exit(2);
                });
                if let Err(e) = validate_against_schema(&doc, &schema) {
                    eprintln!("{path}:{}: FAIL: {e}", i + 1);
                    ok = false;
                    failed = true;
                }
            }
            if ok {
                println!("{path}: ok ({lines} lines)");
            }
        } else {
            let doc = load(path);
            match validate_against_schema(&doc, &schema) {
                Ok(()) => println!("{path}: ok"),
                Err(e) => {
                    eprintln!("{path}: FAIL: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
