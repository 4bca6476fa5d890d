"""Tests for the self-verification suites."""

import pytest

from quorum.verify import SUITES, run_suites


def test_all_suites_green():
    results = run_suites("all")
    failures = [r for r in results if not r.passed and not r.skipped]
    assert failures == []
    assert len(results) >= 40
    assert {r.suite for r in results} == set(SUITES)


def test_single_suite_selection():
    results = run_suites("examples")
    assert {r.suite for r in results} == {"examples"}
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_suite_list_deduplicated():
    once = run_suites(["thm2"])
    twice = run_suites(["thm2", "thm2"])
    assert len(once) == len(twice)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites("nope")


def test_seed_changes_draws_not_verdicts():
    for seed in (1, 2):
        results = run_suites("thm2", seed=seed)
        assert all(r.passed for r in results)


def test_posterior_consistency_checks_can_fail(monkeypatch):
    # a posterior with its labels reversed disagrees with the weighted vote on
    # most answer vectors, and both batched consistency checks must say so
    from quorum import oracle

    bayes, mixture = oracle.bayes_posterior, oracle.mixture_posterior
    monkeypatch.setattr(oracle, "bayes_posterior", lambda *a: bayes(*a)[..., ::-1])
    monkeypatch.setattr(oracle, "mixture_posterior", lambda *a: mixture(*a)[..., ::-1])
    verdicts = {r.name: r.passed for r in run_suites(["thm1", "thm4"])}
    assert not verdicts["weighted_vote_matches_posterior"]
    assert not verdicts["ability_vote_matches_posterior"]


def test_homogeneous_majority_check_can_fail(monkeypatch):
    # majority counts with their labels reversed pick other winners than the
    # homogeneous weighted vote, and the thm1 check must say so
    from quorum import aggregate

    score_batch = aggregate.score_batch

    def reversed_mv(rule, *args, **kwargs):
        scores = score_batch(rule, *args, **kwargs)
        return scores[..., ::-1] if rule == "mv" else scores

    monkeypatch.setattr(aggregate, "score_batch", reversed_mv)
    verdicts = {r.name: r.passed for r in run_suites("thm1")}
    assert not verdicts["homogeneous_equals_majority"]
