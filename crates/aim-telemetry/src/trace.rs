//! Chrome trace-event export.
//!
//! [`start_recording`] arms a Chrome `trace_event` recorder: every span
//! close appends a complete (`"ph":"X"`) event with per-thread track IDs,
//! and [`chrome_trace_json`] renders the buffer in the format
//! `chrome://tracing` / Perfetto load directly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Recorded Chrome events are capped; past the cap new events are counted
/// as dropped rather than growing without bound.
const EVENT_CAP: usize = 200_000;

static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

#[derive(Debug, Clone)]
struct ChromeEvent {
    name: &'static str,
    /// Microseconds since the recording epoch.
    ts_us: f64,
    dur_us: f64,
    tid: u64,
}

struct Recorder {
    epoch: Instant,
    events: Vec<ChromeEvent>,
    dropped: u64,
}

static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Arms the Chrome trace-event recorder: from now on every span close is
/// recorded as a complete event. Clears any previous recording.
pub fn start_recording() {
    let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    *rec = Some(Recorder {
        epoch: Instant::now(),
        events: Vec::new(),
        dropped: 0,
    });
    RECORDING.store(true, Ordering::Relaxed);
}

/// Disarms the recorder, keeping the buffer for [`chrome_trace_json`].
/// Returns the number of events captured.
pub fn stop_recording() -> usize {
    RECORDING.store(false, Ordering::Relaxed);
    RECORDER
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|r| r.events.len())
        .unwrap_or(0)
}

/// True while span closes are being recorded.
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Called by the span layer on every close while recording is armed.
pub(crate) fn record_closed(name: &'static str, start: Instant, dur: Duration) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let tid = TID.try_with(|t| *t).unwrap_or(0);
    let mut rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let Some(rec) = rec.as_mut() else { return };
    if rec.events.len() >= EVENT_CAP {
        rec.dropped += 1;
        return;
    }
    let ts = start
        .checked_duration_since(rec.epoch)
        .unwrap_or(Duration::ZERO);
    rec.events.push(ChromeEvent {
        name,
        ts_us: ts.as_secs_f64() * 1e6,
        dur_us: dur.as_secs_f64() * 1e6,
        tid,
    });
}

/// Renders the recorded buffer in the Chrome `trace_event` JSON format
/// (object form). Loadable by `chrome://tracing` and Perfetto.
pub fn chrome_trace_json() -> String {
    let rec = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    if let Some(rec) = rec.as_ref() {
        for (i, e) in rec.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"aim\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":1,\"tid\":{}}}",
                crate::report::json_escape(e.name),
                e.ts_us,
                e.dur_us,
                e.tid
            ));
        }
    }
    let dropped = rec.as_ref().map(|r| r.dropped).unwrap_or(0);
    out.push_str(&format!("],\"aimEventsDropped\":{dropped}}}"));
    out
}

/// Number of events currently buffered.
pub fn events_recorded() -> usize {
    RECORDER
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|r| r.events.len())
        .unwrap_or(0)
}

/// Writes [`chrome_trace_json`] to `path`, creating parent directories.
pub fn write_chrome_trace(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, chrome_trace_json())
}

/// Disarms the recorder and clears the event buffer.
pub fn reset() {
    RECORDING.store(false, Ordering::Relaxed);
    *RECORDER.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_recording_captures_span_closes() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        start_recording();
        {
            let _a = crate::span("traced_outer");
            let _b = crate::span("traced_inner");
        }
        let n = stop_recording();
        assert_eq!(n, 2, "both spans recorded");
        crate::disable();
        let json = chrome_trace_json();
        let doc = crate::jsonv::parse(&json).expect("chrome trace parses");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        // Inner closes first; complete events carry phase X and a tid.
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("traced_inner")
        );
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert!(events[0].get("tid").unwrap().as_f64().unwrap() >= 1.0);
        // Disarmed: further closes are not recorded.
        crate::enable();
        {
            let _c = crate::span("after_stop");
        }
        crate::disable();
        assert_eq!(events_recorded(), 2);
        crate::reset();
        assert_eq!(events_recorded(), 0);
        crate::span::reset();
    }
}
