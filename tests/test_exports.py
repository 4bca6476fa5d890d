"""The package's public surface: what ``from quorum import X`` offers."""

import importlib

import quorum

# Names callers import from the package; each must stay exported.
_NAMES_KEPT = [
    "AdvantageVector",
    "CiSimSpec",
    "DifficultyMixture",
    "DifficultySimSpec",
    "DimensionError",
    "DomainError",
    "ErmConfig",
    "FitResult",
    "FormatError",
    "LabelSpace",
    "PipelineResult",
    "PredictionMatrix",
    "ResourceError",
    "SecondOrderMatrix",
    "ShuffleMap",
    "TiePolicy",
    "advantage_isp",
    "advantage_mv",
    "advantage_sp",
    "aggregate_isp",
    "aggregate_mv",
    "aggregate_sp",
    "aggregate_weighted",
    "bayes_posterior",
    "clamp_accuracies",
    "derive_seed",
    "dominance_threshold",
    "empirical_second_order",
    "erm_gradient",
    "erm_loss",
    "exact_expected_advantage",
    "exact_second_order",
    "expected_accuracy",
    "expected_advantage_gaps",
    "expected_mv_advantage",
    "fit_accuracies",
    "fit_ow_i",
    "fit_ow_l",
    "isp_score",
    "mixture_expected_accuracy",
    "mixture_expected_advantage",
    "mixture_posterior",
    "mixture_second_order",
    "ow_weights",
    "read_second_order_csv",
    "run_accuracy_table",
    "run_gap_curve",
    "run_pipeline",
    "run_suites",
    "shuffle_apply",
    "shuffle_invert",
    "sigma_k",
    "sigma_k_inverse",
    "simulate_ci",
    "simulate_difficulty",
    "sp_score",
    "write_second_order_csv",
]

_MODULES = ("core", "aggregate", "secondorder", "estimate", "oracle", "simulate", "verify")


def test_earlier_exports_still_import():
    for name in _NAMES_KEPT:
        namespace = {}
        exec(f"from quorum import {name}", namespace)
        assert namespace[name] is getattr(quorum, name), name
        assert name in quorum.__all__, name


def test_all_is_the_modules_lists_in_order():
    modules = [importlib.import_module(f"quorum.{m}") for m in _MODULES]
    assert quorum.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(quorum.__all__)) == len(quorum.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(quorum, name) is getattr(module, name), (module.__name__, name)


def test_records_keep_only_the_fields_something_reads():
    import dataclasses

    fields = {
        quorum.SecondOrderMatrix: ("probs", "imputed", "source"),
        quorum.ShuffleMap: ("perms",),
        quorum.AdvantageVector: ("values",),
        quorum.DifficultyMixture: ("family", "alphas", "weights", "lo", "hi"),
        quorum.simulate.AccuracyTable: ("ks", "methods", "values"),
        quorum.simulate.GapCurve: ("ks", "gap_isp_mv", "gap_mv_sp", "stderr"),
    }
    for cls, names in fields.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls.__name__
