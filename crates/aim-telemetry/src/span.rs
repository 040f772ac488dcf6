//! Scoped spans: RAII timers that aggregate into a per-thread phase tree.
//!
//! A [`span`] opened while another span is live becomes its child. Closing
//! a span folds its subtree into the parent, merging siblings by name —
//! `rank_candidates_with` called 40 times under `tune` shows up as one node with
//! `count = 40` and the summed wall time. When the outermost span closes,
//! the finished tree lands in the thread's profile, retrieved with
//! [`take_profile`] (drains) or [`profile_snapshot`] (clones).
//!
//! The tree is thread-local: concurrent profiled regions never interleave,
//! and no span pays for a lock. A tuning pass runs on the thread that
//! calls it, so its whole tree is that thread's.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One aggregated node of the span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    pub name: String,
    /// Number of spans merged into this node.
    pub count: u64,
    /// Total wall time across those spans.
    pub total: Duration,
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&ProfileNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// Finds a node by a `/`-separated path of span names.
    pub fn descendant(&self, path: &str) -> Option<&ProfileNode> {
        let mut node = self;
        for part in path.split('/') {
            node = node.child(part)?;
        }
        Some(node)
    }

    /// Sum of the direct children's totals.
    pub fn children_total(&self) -> Duration {
        self.children.iter().map(|c| c.total).sum()
    }
}

struct Frame {
    name: &'static str,
    start: Instant,
    children: Vec<ProfileNode>,
}

#[derive(Default)]
struct SpanState {
    stack: Vec<Frame>,
    /// Completed root spans, aggregated by name.
    finished: Vec<ProfileNode>,
}

thread_local! {
    static STATE: RefCell<SpanState> = RefCell::new(SpanState::default());
}

/// Merges `node` into `dst`, combining with an existing sibling of the
/// same name (counts and totals add, children merge recursively).
fn merge_node(dst: &mut Vec<ProfileNode>, node: ProfileNode) {
    if let Some(existing) = dst.iter_mut().find(|n| n.name == node.name) {
        existing.count += node.count;
        existing.total += node.total;
        for child in node.children {
            merge_node(&mut existing.children, child);
        }
    } else {
        dst.push(node);
    }
}

fn close_top(state: &mut SpanState) {
    let Some(frame) = state.stack.pop() else {
        return;
    };
    let total = frame.start.elapsed();
    crate::trace::record_closed(frame.name, frame.start, total);
    let node = ProfileNode {
        name: frame.name.to_string(),
        count: 1,
        total,
        children: frame.children,
    };
    match state.stack.last_mut() {
        Some(parent) => merge_node(&mut parent.children, node),
        None => merge_node(&mut state.finished, node),
    }
}

/// A live span. Dropping it records the elapsed time into the phase tree.
#[must_use = "a span guard must be held for the duration of the phase"]
pub struct SpanGuard {
    start: Instant,
    /// Stack depth of this span's frame (`None` when telemetry was off at
    /// open, or the frame could not be pushed).
    depth: Option<usize>,
}

impl SpanGuard {
    /// Wall time since the span opened. Works whether or not telemetry is
    /// enabled, so callers can use the span as their only timer.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(depth) = self.depth else { return };
        let _ = STATE.try_with(|s| {
            let mut s = s.borrow_mut();
            // Close any deeper frames first (leaked guards), then ours.
            while s.stack.len() >= depth {
                close_top(&mut s);
            }
        });
    }
}

/// Opens a span. When telemetry is disabled this is just a cheap
/// stopwatch: no tree bookkeeping happens.
pub fn span(name: &'static str) -> SpanGuard {
    let start = Instant::now();
    let depth = if crate::is_enabled() {
        STATE
            .try_with(|s| {
                let mut s = s.borrow_mut();
                s.stack.push(Frame {
                    name,
                    start,
                    children: Vec::new(),
                });
                s.stack.len()
            })
            .ok()
    } else {
        None
    };
    SpanGuard { start, depth }
}

/// Returns and clears this thread's finished span tree. The returned
/// synthetic root has one child per distinct root span name.
pub fn take_profile() -> ProfileNode {
    STATE.with(|s| ProfileNode {
        name: String::new(),
        count: 0,
        total: Duration::ZERO,
        children: std::mem::take(&mut s.borrow_mut().finished),
    })
}

/// Like [`take_profile`] but leaves the collected tree in place.
pub fn profile_snapshot() -> ProfileNode {
    STATE.with(|s| ProfileNode {
        name: String::new(),
        count: 0,
        total: Duration::ZERO,
        children: s.borrow().finished.clone(),
    })
}

// The span tree is thread-local, so the introspection server (which runs on
// its own thread) cannot see it directly. Threads that want their profile
// visible on `/profile` publish it into this process-wide slot; repeated
// publishes merge by span name, like siblings within a tree.
static PUBLISHED: std::sync::Mutex<Vec<ProfileNode>> = std::sync::Mutex::new(Vec::new());

/// Drains this thread's finished span tree and merges it into the
/// process-wide published profile (served by the introspection endpoint's
/// `/profile`). Draining (rather than copying) keeps repeated publishes
/// from double counting: each finished root lands in the published tree
/// exactly once.
pub fn publish_profile() {
    let snapshot = take_profile();
    let mut published = PUBLISHED.lock().unwrap_or_else(|e| e.into_inner());
    for root in snapshot.children {
        merge_node(&mut published, root);
    }
}

/// The most recently published profile (synthetic root, one child per root
/// span name), or an empty tree when nothing was published.
pub fn published_profile() -> ProfileNode {
    ProfileNode {
        name: String::new(),
        count: 0,
        total: Duration::ZERO,
        children: PUBLISHED.lock().unwrap_or_else(|e| e.into_inner()).clone(),
    }
}

/// Clears this thread's span state (open frames and finished roots) and the
/// process-wide published profile.
pub fn reset() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.stack.clear();
        s.finished.clear();
    });
    PUBLISHED.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_aggregation() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        {
            let _outer = span("outer");
            for _ in 0..3 {
                let _inner = span("inner");
            }
            {
                let _other = span("other");
                let _deep = span("inner");
            }
        }
        crate::disable();
        let p = take_profile();
        let outer = p.child("outer").expect("outer recorded");
        assert_eq!(outer.count, 1);
        let inner = outer.child("inner").expect("inner recorded");
        assert_eq!(inner.count, 3);
        assert_eq!(
            outer
                .child("other")
                .and_then(|o| o.child("inner"))
                .map(|n| n.count),
            Some(1)
        );
        assert!(outer.total >= outer.children_total());
        // Drained.
        assert!(take_profile().children.is_empty());
    }

    #[test]
    fn repeated_roots_merge() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        for _ in 0..4 {
            let _s = span("pass");
        }
        crate::disable();
        let p = take_profile();
        assert_eq!(p.children.len(), 1);
        assert_eq!(p.children[0].count, 4);
    }

    #[test]
    fn publish_merges_without_double_counting() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        {
            let _s = span("pass");
        }
        publish_profile();
        {
            let _s = span("pass");
        }
        publish_profile();
        // Publishing with nothing new finished is a no-op.
        publish_profile();
        crate::disable();
        let p = published_profile();
        assert_eq!(p.children.len(), 1);
        assert_eq!(p.children[0].name, "pass");
        assert_eq!(p.children[0].count, 2);
        crate::reset();
        assert!(published_profile().children.is_empty());
    }

    #[test]
    fn descendant_lookup() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        {
            let _a = span("a");
            let _b = span("b");
            let _c = span("c");
        }
        crate::disable();
        let p = take_profile();
        assert!(p.descendant("a/b/c").is_some());
        assert!(p.descendant("a/c").is_none());
    }
}
