//! Correctness: answers are compared with the interpreted scoring path
//! (`LanguageClassifierSet::score_all_interpreted`, the program's
//! differential-testing oracle) on the same model.

use serde::Value;
use urlid::classifiers::LanguageClassifierSet;
use urlid::lexicon::{Language, ALL_LANGUAGES};
use urlid::LanguageIdentifier;
use urlid_serve::normalize_url;

/// Check one served result object (`/identify`, or one element of
/// `/identify_batch`'s `results`) for the raw `url` that was sent.
pub fn served_result(
    identifier: &LanguageIdentifier,
    url: &str,
    result: &Value,
) -> Result<(), String> {
    let key = normalize_url(url);
    match result.get("url") {
        Some(Value::Str(served)) if *served == key => {}
        other => return Err(format!("{url}: served url {other:?}, expected {key:?}")),
    }
    let expected = identifier.classifier_set().score_all_interpreted(&key);
    let scores = result
        .get("scores")
        .ok_or_else(|| format!("{url}: no scores"))?;
    for lang in ALL_LANGUAGES {
        let served = match scores.get(lang.iso_code()) {
            Some(Value::Float(x)) => Some(*x),
            Some(Value::Int(n)) => Some(*n as f64),
            Some(Value::Null) | None => None,
            Some(other) => return Err(format!("{url}: score {other:?} is not a number")),
        };
        // Floats are written in shortest round-trip form, so the served
        // score must equal the oracle's bit for bit.
        if served != expected[lang.index()] {
            return Err(format!(
                "{url}: {} score {served:?}, oracle {:?}",
                lang.iso_code(),
                expected[lang.index()]
            ));
        }
    }
    let best = LanguageClassifierSet::best_of(&expected).map(Language::iso_code);
    let served_best = match result.get("best") {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    };
    if served_best != best {
        return Err(format!("{url}: best {served_best:?}, oracle {best:?}"));
    }
    Ok(())
}

/// Check a whole served body for the URLs of its request.
pub fn served_body(
    identifier: &LanguageIdentifier,
    urls: &[String],
    body: &str,
) -> Result<(), String> {
    let value: Value = serde_json::from_str(body).map_err(|e| format!("bad JSON answer: {e}"))?;
    if urls.len() == 1 && value.get("results").is_none() {
        return served_result(identifier, &urls[0], &value);
    }
    let Some(Value::Array(results)) = value.get("results") else {
        return Err("batch answer has no results".to_owned());
    };
    if results.len() != urls.len() {
        return Err(format!("{} results for {} URLs", results.len(), urls.len()));
    }
    urls.iter()
        .zip(results)
        .try_for_each(|(url, result)| served_result(identifier, url, result))
}

/// Check `identify_batch` decisions for `urls`.
pub fn decisions(
    identifier: &LanguageIdentifier,
    urls: &[&str],
    got: &[Option<Language>],
) -> Result<(), String> {
    if got.len() != urls.len() {
        return Err(format!("{} decisions for {} URLs", got.len(), urls.len()));
    }
    for (url, decision) in urls.iter().zip(got) {
        let scores = identifier.classifier_set().score_all_interpreted(url);
        let expected = LanguageClassifierSet::best_of(&scores);
        if *decision != expected {
            return Err(format!(
                "{url}: identify_batch {decision:?}, oracle {expected:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use urlid::corpus::{odp_dataset, CorpusScale, UrlGenerator};
    use urlid::prelude::*;

    fn identifier() -> LanguageIdentifier {
        let split = odp_dataset(&mut UrlGenerator::new(7), CorpusScale(0.002));
        let mut id = LanguageIdentifier::train(&split.train, &TrainingConfig::paper_best());
        id.classifier_set_mut().compile();
        id
    }

    /// Serve one URL from an in-process server and return the body.
    fn served(identifier: LanguageIdentifier, url: &str) -> String {
        use urlid_serve::{spawn, ServeConfig, ServerState};
        let state = std::sync::Arc::new(ServerState::new(identifier, None, 1024));
        let handle = spawn(&ServeConfig::default(), state).expect("spawn");
        let mut conn = crate::client::Conn::connect(handle.addr()).expect("connect");
        let mut body = String::new();
        crate::client::push_json_string(&mut body, url);
        let mut request = Vec::new();
        crate::client::post_request(&mut request, "/identify", &format!("{{\"url\":{body}}}"));
        assert_eq!(conn.exchange(&request).expect("exchange"), 200);
        let answer = String::from_utf8(conn.body().to_vec()).expect("utf-8");
        handle.shutdown();
        answer
    }

    #[test]
    fn a_corrupted_answer_is_caught() {
        let url = UrlGenerator::crawl_frontier_mix(3, 1).remove(0);
        let body = served(identifier(), &url);
        let id = identifier();
        let urls = vec![url];
        served_body(&id, &urls, &body).expect("the true answer passes");

        // Change one served score in its last digit.
        let value: Value = serde_json::from_str(&body).unwrap();
        let Some(Value::Float(score)) = value.get("scores").and_then(|s| s.get("de")) else {
            panic!("no German score in {body}");
        };
        let nudged = f64::from_bits(score.to_bits() + 1);
        let corrupted = body.replacen(&format!("{score:?}"), &format!("{nudged:?}"), 1);
        assert_ne!(corrupted, body);
        assert!(served_body(&id, &urls, &corrupted).is_err());

        // A wrong best language is caught too.
        let best = match value.get("best") {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("no best in {body}"),
        };
        let other = if best == "en" { "fr" } else { "en" };
        let wrong_best = body.replacen(
            &format!("\"best\":\"{best}\""),
            &format!("\"best\":\"{other}\""),
            1,
        );
        assert!(served_body(&id, &urls, &wrong_best).is_err());

        let decided = id.identify_batch(&[urls[0].as_str()]);
        decisions(&id, &[urls[0].as_str()], &decided).expect("true decisions pass");
        let flipped = [if decided[0] == Some(Language::English) {
            Some(Language::French)
        } else {
            Some(Language::English)
        }];
        assert!(decisions(&id, &[urls[0].as_str()], &flipped).is_err());
    }
}
