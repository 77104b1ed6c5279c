//! Pins DESIGN.md §3.11.1's option table to the configuration structs.
//!
//! Every field that `{:?}` prints for `ProjectConfig::default()` (its
//! nested groups included), `ShuffleConfig::default()`,
//! `PollServerConfig::default()`, `ClusterConfig::new(..)` and
//! `MrJobConfig::paper_wordcount(..)` (its `SizingModel` included) must
//! have a row, with its default as `{:?}` prints it (a nested group
//! shows its type name; a field the constructor takes as an argument
//! shows `argument`) and a non-empty "set to another value by" cell;
//! every row must name a field that still exists.

use std::collections::BTreeMap;
use volunteer_mr::cluster::ClusterConfig;
use volunteer_mr::core::{MrJobConfig, MrMode};
use volunteer_mr::mapreduce::JobSpec;
use volunteer_mr::rtnet::PollServerConfig;
use volunteer_mr::vcore::{ProjectConfig, ShuffleConfig};

/// `(struct, field)` → default as `{:?}` prints it.
type Options = BTreeMap<(String, String), String>;

/// Collects the fields of the struct literal `debug` prints, recursing
/// into nested structs; returns the index just past its closing brace.
fn parse_struct(debug: &str, at: usize, out: &mut Options) -> usize {
    let open = at + debug[at..].find(" { ").expect("a struct literal");
    let name = debug[at..open].to_string();
    let mut i = open + 3;
    loop {
        let colon = i + debug[i..].find(": ").expect("a field");
        let field = debug[i..colon].to_string();
        let v = colon + 2;
        let rest = &debug[v..];
        let nested = rest
            .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .filter(|&n| n > 0 && rest[n..].starts_with(" { "));
        let end = if let Some(n) = nested {
            out.insert((name.clone(), field), rest[..n].to_string());
            parse_struct(debug, v, out)
        } else {
            let mut depth = 0i32;
            let n = rest
                .char_indices()
                .find(|&(_, c)| {
                    match c {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' if depth > 0 => depth -= 1,
                        ',' | ' ' if depth == 0 => return true,
                        _ => {}
                    }
                    false
                })
                .map(|(n, _)| n)
                .expect("a value ends");
            out.insert((name.clone(), field), rest[..n].to_string());
            v + n
        };
        if debug[end..].starts_with(", ") {
            i = end + 2;
        } else {
            assert!(debug[end..].starts_with(" }"), "malformed: {debug}");
            return end + 2;
        }
    }
}

fn options() -> Options {
    let mut out = Options::new();
    for debug in [
        format!("{:?}", ProjectConfig::default()),
        format!("{:?}", ShuffleConfig::default()),
        format!("{:?}", PollServerConfig::default()),
        format!("{:?}", ClusterConfig::new(1, JobSpec::new("j", 1, 1))),
        format!(
            "{:?}",
            MrJobConfig::paper_wordcount(1, 1, MrMode::InterClient)
        ),
    ] {
        assert_eq!(parse_struct(&debug, 0, &mut out), debug.len());
    }
    // The constructors' arguments have no default, and the job
    // geometry inside one is not an option.
    out.retain(|(strukt, _), _| strukt != "JobSpec");
    for (strukt, field) in [
        ("ClusterConfig", "n_workers"),
        ("ClusterConfig", "job"),
        ("MrJobConfig", "job"),
        ("MrJobConfig", "mode"),
    ] {
        out.insert((strukt.into(), field.into()), "argument".into());
    }
    out
}

/// `(struct, field)` → `(default, set by)` from DESIGN.md's table.
fn table() -> BTreeMap<(String, String), (String, String)> {
    let design = include_str!("../DESIGN.md");
    let start = design.find("#### 3.11.1 ").expect("DESIGN.md has §3.11.1");
    let section = &design[start..];
    let section = &section[..section[4..].find("\n#").map_or(section.len(), |n| n + 4)];
    let mut rows = BTreeMap::new();
    for line in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<String> = line
            .trim_matches('|')
            .split(" | ")
            .map(|c| c.trim().to_string())
            .collect();
        assert_eq!(cells.len(), 4, "row of four cells: {line}");
        let bare = |c: &str| c.trim_matches('`').to_string();
        let key = (bare(&cells[0]), bare(&cells[1]));
        let dup = rows.insert(key, (bare(&cells[2]), cells[3].clone()));
        assert!(dup.is_none(), "duplicate row: {line}");
    }
    rows
}

#[test]
fn every_option_has_a_row_with_its_default() {
    let table = table();
    for ((strukt, field), default) in options() {
        let Some((row_default, set_by)) = table.get(&(strukt.clone(), field.clone())) else {
            panic!("DESIGN.md §3.11.1 has no row for {strukt}.{field}");
        };
        assert_eq!(row_default, &default, "{strukt}.{field}'s default");
        assert!(!set_by.is_empty(), "{strukt}.{field} names no study");
    }
}

#[test]
fn every_row_names_an_option() {
    let options = options();
    for (strukt, field) in table().keys() {
        assert!(
            options.contains_key(&(strukt.clone(), field.clone())),
            "DESIGN.md §3.11.1 lists {strukt}.{field}, which no longer exists"
        );
    }
}
