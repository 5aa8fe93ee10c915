//! The correctness checks a run must pass before it reports a result.
//! Each returns the reason as `Err` so the run exits non-zero without
//! printing a result line.

use toorjah_catalog::Tuple;

use crate::oracle::normalize;

/// A statement's answers equal the expected ones, in any order.
pub fn answers(label: &str, got: Vec<Tuple>, want: &[Tuple]) -> Result<(), String> {
    let got = normalize(got);
    if got == want {
        return Ok(());
    }
    Err(format!(
        "{label}: {} answer(s) differ from the {} expected (first got {:?}, first expected {:?})",
        got.len(),
        want.len(),
        got.first(),
        want.first()
    ))
}

/// An execution performs no more accesses than the naive algorithm.
pub fn within_naive(label: &str, performed: u64, naive: u64) -> Result<(), String> {
    if performed <= naive {
        return Ok(());
    }
    Err(format!(
        "{label}: {performed} accesses performed, more than the naive {naive}"
    ))
}

/// The source wrapper saw exactly the accesses the engine reports.
pub fn wrapper_count(label: &str, counted: u64, performed: u64) -> Result<(), String> {
    if counted == performed {
        return Ok(());
    }
    Err(format!(
        "{label}: the source wrapper counted {counted} accesses, the engine reports {performed}"
    ))
}

/// Every requested access was performed, served by a cache or pruned.
pub fn accounting(
    label: &str,
    performed: u64,
    served: u64,
    pruned: u64,
    requested: u64,
) -> Result<(), String> {
    if performed + served + pruned == requested {
        return Ok(());
    }
    Err(format!(
        "{label}: performed {performed} + served {served} + pruned {pruned} != requested {requested}"
    ))
}

/// The daemon's own counts match the requests the benchmark sent.
pub fn server_counts(
    sent: u64,
    accepted: u64,
    completed: u64,
    rejected: u64,
) -> Result<(), String> {
    if accepted == sent && completed == sent && rejected == 0 {
        return Ok(());
    }
    Err(format!(
        "daemon counted accepted {accepted}, completed {completed}, rejected {rejected} \
         for {sent} requests sent"
    ))
}

/// A daemon reply is a success for the request it answers.
pub fn reply_ok(id: u64, reply: &str) -> Result<(), String> {
    if reply.starts_with(&format!("{{\"id\":{id},\"ok\":true,")) {
        return Ok(());
    }
    let shown: String = reply.chars().take(300).collect();
    Err(format!("request {id} failed: {shown}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use toorjah_catalog::tuple;

    #[test]
    fn answers_fail_on_a_wrong_or_missing_answer() {
        let want = vec![tuple!["a"], tuple!["b"]];
        assert!(answers("q", vec![tuple!["b"], tuple!["a"]], &want).is_ok());
        assert!(answers("q", vec![tuple!["b"], tuple!["a"], tuple!["a"]], &want).is_err());
        assert!(answers("q", vec![tuple!["a"]], &want).is_err());
        assert!(answers("q", vec![tuple!["a"], tuple!["c"]], &want).is_err());
        assert!(answers("q", vec![tuple!["a"], tuple!["b"], tuple!["c"]], &want).is_err());
    }

    #[test]
    fn within_naive_fails_above_the_naive_count() {
        assert!(within_naive("q", 421, 157_614).is_ok());
        assert!(within_naive("q", 157_614, 157_614).is_ok());
        assert!(within_naive("q", 157_615, 157_614).is_err());
    }

    #[test]
    fn wrapper_count_fails_on_any_difference() {
        assert!(wrapper_count("q", 421, 421).is_ok());
        assert!(wrapper_count("q", 420, 421).is_err());
        assert!(wrapper_count("q", 422, 421).is_err());
    }

    #[test]
    fn accounting_fails_when_a_request_is_unaccounted() {
        assert!(accounting("q", 441, 0, 360, 801).is_ok());
        assert!(accounting("q", 441, 0, 359, 801).is_err());
        assert!(accounting("q", 441, 1, 360, 801).is_err());
    }

    #[test]
    fn server_counts_fail_on_mismatch_or_rejection() {
        assert!(server_counts(100, 100, 100, 0).is_ok());
        assert!(server_counts(100, 99, 99, 0).is_err());
        assert!(server_counts(100, 100, 99, 0).is_err());
        assert!(server_counts(100, 100, 100, 1).is_err());
    }

    #[test]
    fn reply_ok_fails_on_errors_and_foreign_ids() {
        assert!(reply_ok(7, r#"{"id":7,"ok":true,"verb":"ask"}"#).is_ok());
        assert!(reply_ok(7, r#"{"id":8,"ok":true,"verb":"ask"}"#).is_err());
        assert!(reply_ok(7, r#"{"id":7,"ok":false,"error":{}}"#).is_err());
    }
}
