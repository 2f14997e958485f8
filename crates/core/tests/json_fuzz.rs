//! Seeded mutational fuzzing of the JSON parser and the snapshot reader.
//!
//! Canonical documents and a real snapshot are mutated — bits flipped,
//! text truncated, deep nesting and multi-byte UTF-8 spliced in, pieces
//! of the document copied elsewhere — and every mutant must come back
//! from `json::parse` as `Ok` or `Err`, never a panic. Every `Ok` tree
//! must survive a print/parse round trip unchanged.

use nest_core::{presets, restore, run_until, PolicyKind, Progress, SimConfig, SnapError};
use nest_simcore::json::{self, obj, Json};
use nest_simcore::rng::SimRng;
use nest_simcore::Time;
use nest_workloads::configure::Configure;

const IDENTITY: &str = "fuzz-scenario";

fn cfg() -> SimConfig {
    SimConfig::new(presets::xeon_5218()).policy(PolicyKind::Nest)
}

fn snapshot_text() -> String {
    match run_until(&cfg(), &Configure::named("gdb"), Time::from_millis(20)) {
        Progress::Paused(p) => p.snapshot(IDENTITY, Json::str("opaque")).unwrap(),
        Progress::Done(_) => panic!("run finished before the pause point"),
    }
}

fn canonical_documents() -> Vec<String> {
    let tree = obj(vec![
        ("name", Json::str("fig04 → 世界 😀")),
        ("n", Json::u64(u64::MAX)),
        ("x", Json::f64(-1.5e-300)),
        ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        (
            "nested",
            obj(vec![
                ("s", Json::str("a\"b\\c\n\u{1}")),
                ("e", Json::Arr(vec![])),
            ]),
        ),
    ]);
    let numbers = Json::Arr((0..64).map(|i| Json::f64(f64::from(i) / 7.0)).collect());
    vec![tree.to_pretty(), numbers.to_pretty(), "{}".to_string()]
}

fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

fn pick<'a>(rng: &mut SimRng, options: &[&'a str]) -> &'a str {
    options[rng.uniform_u64(0, options.len() as u64 - 1) as usize]
}

/// Applies one to four random edits to `text`. Edits work on bytes, so a
/// mutant may split a character; such bytes are replaced by U+FFFD.
fn mutate(rng: &mut SimRng, text: &str) -> String {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..rng.uniform_u64(1, 4) {
        let at = rng.uniform_u64(0, b.len() as u64) as usize;
        match rng.uniform_u64(0, 4) {
            0 => {
                if at < b.len() {
                    b[at] ^= 1 << rng.uniform_u64(0, 7);
                }
            }
            1 => b.truncate(at),
            2 => {
                let unit = pick(rng, &["[", "{\"k\":", "[{\"a\":"]);
                let n = rng.uniform_u64(1, 4_000) as usize;
                b.splice(at..at, unit.repeat(n).into_bytes());
            }
            3 => {
                let c = pick(rng, &["é", "世", "😀", "\u{FFFD}", "\\u00e9"]);
                b.splice(at..at, c.bytes());
            }
            _ => {
                let from = rng.uniform_u64(0, b.len() as u64) as usize;
                let len = rng.uniform_u64(0, 64).min((b.len() - from) as u64) as usize;
                let piece = b[from..from + len].to_vec();
                b.splice(at..at, piece);
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Parses `text`; an `Ok` tree must print and parse back to itself.
fn check_parse(text: &str) -> Option<Json> {
    let tree = json::parse(text).ok()?;
    assert_eq!(
        json::parse(&tree.to_pretty()).as_ref(),
        Ok(&tree),
        "print/parse round trip changed the tree"
    );
    Some(tree)
}

#[test]
fn mutated_documents_parse_or_fail_but_never_panic() {
    let mut rng = SimRng::new(0xF022_0013);
    for doc in canonical_documents() {
        assert!(check_parse(&doc).is_some(), "canonical input must parse");
        let refused = (0..500)
            .filter(|_| check_parse(&mutate(&mut rng, &doc)).is_none())
            .count();
        assert!(refused > 0, "no mutant of {doc:?} was refused");
    }
}

#[test]
fn mutated_snapshots_parse_or_fail_and_restore_never_panics() {
    let text = snapshot_text();
    let original = check_parse(&text).expect("a snapshot parses");
    // The limit on nesting must sit far above what the codec writes.
    assert!(
        depth(&original) < 16,
        "snapshot nests {} levels",
        depth(&original)
    );
    let mut rng = SimRng::new(0x5AA9_0013);
    for _ in 0..60 {
        let mutant = mutate(&mut rng, &text);
        check_parse(&mutant);
        // Ok only when the edit left every checked part intact.
        let _ = restore(&cfg(), &Configure::named("gdb"), &mutant, IDENTITY);
    }
}

#[test]
fn a_byte_changed_in_the_body_is_refused_by_restore() {
    let text = snapshot_text();
    let body = text.find("\"body\"").expect("a body block");
    let mut rng = SimRng::new(0xB0D7_0013);
    for _ in 0..10 {
        // Swap one letter or digit of the body for a different one: the
        // body then either stops parsing or stops matching its checksum.
        let mut b = text.clone().into_bytes();
        let at = loop {
            let at = rng.uniform_u64(body as u64 + 7, b.len() as u64 - 1) as usize;
            if b[at].is_ascii_alphanumeric() {
                break at;
            }
        };
        b[at] = if b[at] == b'1' { b'2' } else { b'1' };
        let mutant = String::from_utf8(b).unwrap();
        let err = restore(&cfg(), &Configure::named("gdb"), &mutant, IDENTITY)
            .err()
            .expect("a changed body must not restore");
        assert!(
            matches!(
                err,
                SnapError::Parse(_) | SnapError::ChecksumMismatch { .. }
            ),
            "{err}"
        );
    }
}
