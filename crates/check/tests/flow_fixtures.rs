//! Fixture corpus for the `nbsp_check::flow` keep-lifetime dataflow:
//! hand-written sources exercising every control-flow shape the CFG
//! builder claims to handle (match arms, `?`, early returns, nested
//! loops with break/continue, closures), plus the two planted canaries
//! with their replayable diagnostics.
//!
//! Each fixture asserts on the *raw* per-function verdicts from
//! [`nbsp_check::flow::analyze_source`] — annotation/allowlist
//! resolution is `analyze_repo`'s job and is covered by the E17 gates.

use nbsp_check::flow::{self, FileFlow};

fn one_fn(src: &str) -> flow::FnReport {
    let ff = flow::analyze_source("fixture.rs", src);
    assert_eq!(ff.functions.len(), 1, "fixture must contain exactly one fn");
    ff.functions.into_iter().next().unwrap()
}

fn analyze(src: &str) -> FileFlow {
    flow::analyze_source("fixture.rs", src)
}

// ---------------------------------------------------------------------------
// match arms
// ---------------------------------------------------------------------------

#[test]
fn match_with_consumer_in_every_arm_is_clean() {
    let f = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) -> u64 {\n\
             let mut keep = Keep::default();\n\
             let x = v.ll(ctx, &mut keep);\n\
             match x {\n\
                 0 => { v.cl(ctx, &mut keep); 0 }\n\
                 1 => { if v.sc(ctx, &mut keep, 9) { 1 } else { 2 } }\n\
                 _ => { v.cl(ctx, &mut keep); 3 }\n\
             }\n\
         }\n",
    );
    assert_eq!(f.births, 1);
    assert!(f.leaks.is_empty(), "leaks: {:?}", f.leaks);
}

#[test]
fn match_arm_missing_consumer_leaks_on_that_arm_only() {
    let f = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) -> u64 {\n\
             let mut keep = Keep::default();\n\
             let x = v.ll(ctx, &mut keep);\n\
             match x {\n\
                 0 => { v.cl(ctx, &mut keep); 0 }\n\
                 _ => 7,\n\
             }\n\
         }\n",
    );
    assert_eq!(f.leaks.len(), 1, "leaks: {:?}", f.leaks);
    let l = &f.leaks[0];
    assert_eq!(l.keep, "keep");
    assert_eq!(l.birth_line, 3);
    assert_eq!(l.exit_kind, "end");
    assert!(!l.path.is_empty(), "path trace must be replayable");
}

// ---------------------------------------------------------------------------
// `?` propagation
// ---------------------------------------------------------------------------

#[test]
fn question_mark_with_live_keep_is_an_exit_leak() {
    let f = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) -> Result<u64> {\n\
             let mut keep = Keep::default();\n\
             let x = v.ll(ctx, &mut keep);\n\
             let y = fallible(x)?;\n\
             v.cl(ctx, &mut keep);\n\
             Ok(y)\n\
         }\n",
    );
    assert_eq!(f.leaks.len(), 1, "leaks: {:?}", f.leaks);
    assert_eq!(f.leaks[0].exit_kind, "?");
    assert_eq!(f.leaks[0].exit_line, 4);
}

#[test]
fn question_mark_after_consumption_is_clean() {
    let f = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) -> Result<u64> {\n\
             let mut keep = Keep::default();\n\
             let x = v.ll(ctx, &mut keep);\n\
             v.cl(ctx, &mut keep);\n\
             let y = fallible(x)?;\n\
             Ok(y)\n\
         }\n",
    );
    assert!(f.leaks.is_empty(), "leaks: {:?}", f.leaks);
}

// ---------------------------------------------------------------------------
// early returns
// ---------------------------------------------------------------------------

#[test]
fn early_return_with_live_keep_is_caught_with_path() {
    let f = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) -> u64 {\n\
             let mut keep = Keep::default();\n\
             loop {\n\
                 let x = v.ll(ctx, &mut keep);\n\
                 if x == 0 {\n\
                     return 0;\n\
                 }\n\
                 if v.sc(ctx, &mut keep, x - 1) {\n\
                     return x;\n\
                 }\n\
             }\n\
         }\n",
    );
    assert_eq!(f.leaks.len(), 1, "leaks: {:?}", f.leaks);
    let l = &f.leaks[0];
    assert_eq!((l.birth_line, l.exit_line, l.exit_kind), (4, 6, "return"));
    assert!(l.path.len() >= 2, "path trace: {:?}", l.path);
}

#[test]
fn early_return_after_cl_is_clean() {
    let f = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) -> u64 {\n\
             let mut keep = Keep::default();\n\
             loop {\n\
                 let x = v.ll(ctx, &mut keep);\n\
                 if x == 0 {\n\
                     v.cl(ctx, &mut keep);\n\
                     return 0;\n\
                 }\n\
                 if v.sc(ctx, &mut keep, x - 1) {\n\
                     return x;\n\
                 }\n\
             }\n\
         }\n",
    );
    assert!(f.leaks.is_empty(), "leaks: {:?}", f.leaks);
}

// ---------------------------------------------------------------------------
// nested loops, break / continue
// ---------------------------------------------------------------------------

#[test]
fn inner_break_that_skips_the_consumer_leaks_at_the_outer_end() {
    let f = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) {\n\
             let mut keep = Keep::default();\n\
             for _ in 0..4 {\n\
                 let x = v.ll(ctx, &mut keep);\n\
                 loop {\n\
                     if x == 0 {\n\
                         break;\n\
                     }\n\
                     if v.sc(ctx, &mut keep, 1) {\n\
                         break;\n\
                     }\n\
                 }\n\
             }\n\
         }\n",
    );
    // The inner `break` on x == 0 leaves the keep live when the outer
    // for-loop ends.
    assert!(
        f.leaks.iter().any(|l| l.birth_line == 4 && l.exit_kind == "end"),
        "leaks: {:?}",
        f.leaks
    );
}

#[test]
fn continue_back_to_a_rebirth_is_clean() {
    let f = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) -> u64 {\n\
             let mut keep = Keep::default();\n\
             'outer: loop {\n\
                 let x = v.ll(ctx, &mut keep);\n\
                 if x == 7 {\n\
                     v.cl(ctx, &mut keep);\n\
                     continue 'outer;\n\
                 }\n\
                 if v.sc(ctx, &mut keep, x + 1) {\n\
                     return x;\n\
                 }\n\
             }\n\
         }\n",
    );
    assert!(f.leaks.is_empty(), "leaks: {:?}", f.leaks);
}

// ---------------------------------------------------------------------------
// closures
// ---------------------------------------------------------------------------

#[test]
fn closure_body_is_analyzed_inline() {
    // A keep born and resolved inside a closure body stays balanced; one
    // born inside the closure but never consumed still counts as live at
    // the enclosing function's exit (the analysis is conservative:
    // closures are lowered inline, not skipped).
    let clean = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) {\n\
             let g = |k: u64| {\n\
                 let mut keep = Keep::default();\n\
                 let _ = v.ll(ctx, &mut keep);\n\
                 v.cl(ctx, &mut keep);\n\
             };\n\
             g(1);\n\
         }\n",
    );
    assert!(clean.leaks.is_empty(), "leaks: {:?}", clean.leaks);
    let leaky = one_fn(
        "fn f(v: &V, ctx: &mut Ctx) {\n\
             let g = |k: u64| {\n\
                 let mut keep = Keep::default();\n\
                 let _ = v.ll(ctx, &mut keep);\n\
             };\n\
             g(1);\n\
         }\n",
    );
    assert_eq!(leaky.leaks.len(), 1, "leaks: {:?}", leaky.leaks);
}

#[test]
fn nested_fn_items_are_separate_functions() {
    let ff = analyze(
        "fn outer(v: &V, ctx: &mut Ctx) {\n\
             fn inner(v: &V, ctx: &mut Ctx) {\n\
                 let mut keep = Keep::default();\n\
                 let _ = v.ll(ctx, &mut keep);\n\
             }\n\
             inner(v, ctx);\n\
         }\n",
    );
    assert_eq!(ff.functions.len(), 2);
    let outer = ff.functions.iter().find(|f| f.name == "outer").unwrap();
    let inner = ff.functions.iter().find(|f| f.name == "inner").unwrap();
    assert_eq!(outer.births, 0, "nested fn bodies must not bleed into the outer fn");
    assert_eq!(inner.leaks.len(), 1);
}

// ---------------------------------------------------------------------------
// bound counting
// ---------------------------------------------------------------------------

#[test]
fn simultaneous_keeps_raise_max_live() {
    let f = one_fn(
        "fn f(a: &V, b: &V, ctx: &mut Ctx) {\n\
             let mut k1 = Keep::default();\n\
             let mut k2 = Keep::default();\n\
             let _ = a.ll(ctx, &mut k1);\n\
             let _ = b.ll(ctx, &mut k2);\n\
             b.cl(ctx, &mut k2);\n\
             a.cl(ctx, &mut k1);\n\
         }\n",
    );
    assert_eq!(f.max_live, 2);
    assert!(f.leaks.is_empty(), "leaks: {:?}", f.leaks);
}

#[test]
fn scx_array_handle_set_consumes_every_handle() {
    let f = one_fn(
        "fn del(&self, ctx: &mut C) -> bool {\n\
             let LlxOutcome::Linked(hg) = self.d.llx(ctx, gp) else { return false; };\n\
             let LlxOutcome::Linked(hp) = self.d.llx(ctx, p) else { self.d.unlink(ctx, hg); return false; };\n\
             let LlxOutcome::Linked(hl) = self.d.llx(ctx, l) else { self.d.unlink(ctx, hg); self.d.unlink(ctx, hp); return false; };\n\
             self.d.scx(ctx, p, [hg, hp, hl], 0b110, gp, side, v)\n\
         }\n",
    );
    assert_eq!(f.births, 3);
    assert_eq!(f.max_live, 3);
    assert!(f.uses_llx_family);
    assert!(f.leaks.is_empty(), "leaks: {:?}", f.leaks);
}

#[test]
fn handle_left_out_of_the_scx_array_leaks() {
    let f = one_fn(
        "fn ins(&self, ctx: &mut C) -> bool {\n\
             let LlxOutcome::Linked(hp) = self.d.llx(ctx, p) else { return false; };\n\
             let LlxOutcome::Linked(hl) = self.d.llx(ctx, l) else { self.d.unlink(ctx, hp); return false; };\n\
             self.d.scx(ctx, p, [hp], 0, p, side, v)\n\
         }\n",
    );
    assert_eq!(f.leaks.len(), 1, "leaks: {:?}", f.leaks);
    assert_eq!(f.leaks[0].keep, "hl");
    assert_eq!(f.leaks[0].birth_line, 3);
}

// ---------------------------------------------------------------------------
// R7 backoff discipline + annotations
// ---------------------------------------------------------------------------

#[test]
fn bare_retry_loop_is_an_r7_hit_and_backoff_clears_it() {
    let bare = analyze(
        "fn f(v: &V, ctx: &mut Ctx) {\n\
             let mut keep = Keep::default();\n\
             loop {\n\
                 let x = v.ll(ctx, &mut keep);\n\
                 if v.sc(ctx, &mut keep, x + 1) {\n\
                     return;\n\
                 }\n\
             }\n\
         }\n",
    );
    assert_eq!(bare.backoff.len(), 1, "hits: {:?}", bare.backoff);
    assert_eq!(bare.backoff[0], ("f".to_string(), 3));
    let damped = analyze(
        "fn f(v: &V, ctx: &mut Ctx) {\n\
             let mut keep = Keep::default();\n\
             let mut backoff = Backoff::new();\n\
             loop {\n\
                 let x = v.ll(ctx, &mut keep);\n\
                 if v.sc(ctx, &mut keep, x + 1) {\n\
                     return;\n\
                 }\n\
                 backoff.spin();\n\
             }\n\
         }\n",
    );
    assert!(damped.backoff.is_empty(), "hits: {:?}", damped.backoff);
}

#[test]
fn allow_annotations_parse_with_rule_and_reason() {
    let ff = analyze(
        "fn f(v: &V, ctx: &mut Ctx) {\n\
             let mut keep = Keep::default();\n\
             // nbsp-flow: allow(keep-leak) \u{2014} fixture reason\n\
             let _ = v.ll(ctx, &mut keep);\n\
         }\n",
    );
    assert_eq!(ff.annotations.len(), 1);
    assert_eq!(ff.annotations[0].rule, "keep-leak");
    assert_eq!(ff.annotations[0].reason, "fixture reason");
    assert_eq!(ff.annotations[0].line, 3);
}

// ---------------------------------------------------------------------------
// canaries: replayable diagnostics
// ---------------------------------------------------------------------------

#[test]
fn keep_leak_canary_diagnostic_has_file_line_and_path() {
    let (leak, _) = flow::check_canaries();
    assert!(leak.caught, "{}", leak.diagnostic);
    assert!(
        leak.diagnostic.contains("<planted-keep-leak>:5"),
        "diagnostic must carry file:line: {}",
        leak.diagnostic
    );
    assert!(
        leak.diagnostic.contains("path:"),
        "diagnostic must carry the block-line path trace: {}",
        leak.diagnostic
    );
}

#[test]
fn unpaired_release_canary_diagnostic_names_field_and_line() {
    let (_, rel) = flow::check_canaries();
    assert!(rel.caught, "{}", rel.diagnostic);
    assert!(
        rel.diagnostic.contains("<planted-unpaired-release>:2"),
        "diagnostic must carry file:line: {}",
        rel.diagnostic
    );
    assert!(
        rel.diagnostic.contains("ready"),
        "diagnostic must name the unpaired field: {}",
        rel.diagnostic
    );
}
