//! Panic containment, shared by the sweep engine and the serve layer.
//!
//! [`contain`] runs a closure under `catch_unwind` and turns a panic
//! into its payload text. One process-wide panic hook stays silent for
//! panics raised inside a contained call — those are reported as typed
//! outcomes, not stderr noise — and delegates every other panic to the
//! previous hook. Contained calls nest (a served request's sweep runs
//! inside the serve envelope): the inner call restores the outer's
//! suppression on exit instead of clearing it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Set while a contained call runs on this thread, so the quiet
    /// hook stays silent for panics [`contain`] is about to catch.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Runs `f`, catching a panic as `Err(payload text)`.
///
/// The caller vouches for unwind safety: state `f` may leave half
/// updated must not be trusted after an `Err`. The non-panicking path
/// neither allocates nor locks.
///
/// # Errors
///
/// The panic payload's text when `f` panics.
pub fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let outer = SUPPRESS_PANIC_OUTPUT.with(|s| s.replace(true));
    let caught = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(outer));
    caught.map_err(|payload| panic_message(payload.as_ref()))
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suppressed() -> bool {
        SUPPRESS_PANIC_OUTPUT.with(Cell::get)
    }

    #[test]
    fn nested_contain_restores_the_outer_suppression() {
        let (inner, after_inner) = contain(|| {
            let inner = contain(|| -> () { panic!("inner") });
            (inner, suppressed())
        })
        .unwrap();
        assert_eq!(inner, Err("inner".to_string()));
        assert!(after_inner, "the inner call cleared the outer call's suppression");
        assert!(!suppressed());
    }

    #[test]
    fn panic_message_extracts_both_payload_shapes() {
        let s: Box<dyn Any + Send> = Box::new("static str payload");
        assert_eq!(panic_message(s.as_ref()), "static str payload");
        let owned: Box<dyn Any + Send> = Box::new(String::from("owned payload"));
        assert_eq!(panic_message(owned.as_ref()), "owned payload");
        let other: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(other.as_ref()), "non-string panic payload");
    }
}
