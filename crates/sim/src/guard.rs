//! The one guarded-cell harness: sweep cells, chaos cells and serve
//! workers all run through [`guarded`].
//!
//! A cell runs under [`catch_unwind`], so a panic becomes
//! [`CellFailureReason::Panic`] carrying its message. With a wall-clock
//! limit the cell also runs on its own named worker thread under a
//! watchdog: a cell that does not report in time is abandoned (a stuck
//! thread cannot be killed safely, so it is detached and leaked) and
//! reported as [`CellFailureReason::Timeout`].

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use fifoms_types::SimError;

/// Why a guarded cell failed.
#[derive(Clone, Debug, PartialEq)]
pub enum CellFailureReason {
    /// The cell's scheduler or workload panicked; the payload message.
    Panic(String),
    /// The cell exceeded the policy's wall-clock budget.
    Timeout {
        /// The budget that was exceeded, in milliseconds.
        millis: u64,
    },
    /// The cell reported a structured error (invalid parameters or an
    /// invariant violation), rendered via its `Display`.
    Error(String),
}

impl fmt::Display for CellFailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailureReason::Panic(msg) => write!(f, "panicked: {msg}"),
            CellFailureReason::Timeout { millis } => {
                write!(f, "timed out after {millis} ms")
            }
            CellFailureReason::Error(msg) => write!(f, "error: {msg}"),
        }
    }
}

/// The message of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Run one cell with panic containment and, when `limit` is set, a
/// wall-clock watchdog.
///
/// A cell error becomes [`CellFailureReason::Error`], a panic
/// [`CellFailureReason::Panic`] — reported as soon as it happens, not
/// when the limit runs out — and a cell still running at the limit
/// [`CellFailureReason::Timeout`].
pub fn guarded<T: Send + 'static>(
    limit: Option<Duration>,
    cell: impl FnOnce() -> Result<T, SimError> + Send + 'static,
) -> Result<T, CellFailureReason> {
    let protected = move || match catch_unwind(AssertUnwindSafe(cell)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(CellFailureReason::Error(e.to_string())),
        Err(payload) => Err(CellFailureReason::Panic(panic_message(payload.as_ref()))),
    };
    let Some(limit) = limit else {
        return protected();
    };
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("fifoms-cell".into())
        .spawn(move || {
            // The receiver may be gone already (timeout): ignore the error.
            let _ = tx.send(protected());
        });
    if let Err(e) = spawned {
        return Err(CellFailureReason::Error(format!(
            "failed to spawn cell worker: {e}"
        )));
    }
    match rx.recv_timeout(limit) {
        Ok(res) => res,
        Err(RecvTimeoutError::Timeout) => Err(CellFailureReason::Timeout {
            millis: limit.as_millis() as u64,
        }),
        // The worker died without reporting: a panic escaped the unwind
        // guard (e.g. a payload whose drop panics).
        Err(RecvTimeoutError::Disconnected) => Err(CellFailureReason::Panic(
            "cell worker exited without reporting".to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn panicking_cell_reports_its_message_before_the_limit() {
        let began = Instant::now();
        let out = guarded::<()>(Some(Duration::from_secs(30)), || panic!("boom"));
        assert_eq!(out, Err(CellFailureReason::Panic("boom".to_string())));
        assert!(
            began.elapsed() < Duration::from_secs(10),
            "a panic must not wait out the watchdog: {:?}",
            began.elapsed()
        );
        let unguarded = guarded::<()>(None, || panic!("unlimited {}", 7));
        assert_eq!(
            unguarded,
            Err(CellFailureReason::Panic("unlimited 7".to_string()))
        );
    }

    #[test]
    fn stalled_cell_times_out_and_healthy_cell_passes() {
        let began = Instant::now();
        let hung = guarded(Some(Duration::from_millis(40)), || {
            std::thread::sleep(Duration::from_millis(3_000));
            Ok(1u32)
        });
        assert_eq!(hung, Err(CellFailureReason::Timeout { millis: 40 }));
        assert!(began.elapsed() < Duration::from_millis(2_000));
        assert_eq!(guarded(Some(Duration::from_secs(60)), || Ok(7u32)), Ok(7));
    }

    #[test]
    fn errors_and_non_string_panics_keep_their_own_reasons() {
        let killed = SimError::Killed { slot: 5 };
        let expected = Err(CellFailureReason::Error(killed.to_string()));
        for limit in [None, Some(Duration::from_secs(60))] {
            let err = killed.clone();
            assert_eq!(
                guarded::<()>(limit, move || Err(err)),
                expected,
                "{limit:?}"
            );
        }
        let odd = guarded::<()>(None, || std::panic::panic_any(42u32));
        assert_eq!(
            odd,
            Err(CellFailureReason::Panic(
                "panic with a non-string payload".to_string()
            ))
        );
        let shown: Vec<String> = [
            CellFailureReason::Panic("boom".into()),
            CellFailureReason::Timeout { millis: 40 },
            CellFailureReason::Error("bad input".into()),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(
            shown,
            [
                "panicked: boom",
                "timed out after 40 ms",
                "error: bad input"
            ]
        );
    }
}
