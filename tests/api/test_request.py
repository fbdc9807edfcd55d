"""Validation and normalisation tests for EnumerationRequest."""

from __future__ import annotations

import re

import pytest

from repro.api import EnumerationRequest
from repro.errors import ParameterError, ProbabilityError

#: Each integer field, with a request it is valid on.
INTEGER_FIELDS = {
    "k": {"algorithm": "top_k"},
    "min_size": {"algorithm": "top_k", "k": 3},
    "size_threshold": {"algorithm": "large", "alpha": 0.5},
    "workers": {"algorithm": "mule", "alpha": 0.5},
    "num_shards": {"algorithm": "mule", "alpha": 0.5},
}


class TestNormalisation:
    @pytest.mark.parametrize(
        "alias,canonical",
        [
            ("mule", "mule"),
            ("fast", "fast"),
            ("fast-mule", "fast"),
            ("fast_mule", "fast"),
            ("noip", "noip"),
            ("dfs-noip", "noip"),
            ("large", "large"),
            ("large-mule", "large"),
            ("top_k", "top_k"),
            ("top-k", "top_k"),
        ],
    )
    def test_algorithm_aliases(self, alias, canonical):
        kwargs = {"alpha": 0.5}
        if canonical == "large":
            kwargs["size_threshold"] = 3
        if canonical == "top_k":
            kwargs["k"] = 1
        assert EnumerationRequest(algorithm=alias, **kwargs).algorithm == canonical

    def test_alpha_is_validated_and_coerced(self):
        request = EnumerationRequest(algorithm="mule", alpha=1)
        assert request.alpha == 1.0
        assert isinstance(request.alpha, float)

    def test_labels(self):
        assert EnumerationRequest(algorithm="mule", alpha=0.5).label == "mule"
        assert EnumerationRequest(algorithm="fast", alpha=0.5).label == "fast-mule"
        assert EnumerationRequest(algorithm="noip", alpha=0.5).label == "dfs-noip"
        assert (
            EnumerationRequest(algorithm="large", alpha=0.5, size_threshold=3).label
            == "large-mule"
        )
        assert EnumerationRequest(algorithm="top_k", alpha=0.5, k=1).label == "top-k"
        assert (
            EnumerationRequest(algorithm="mule", alpha=0.5, workers=4).label
            == "parallel-mule"
        )


class TestValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="bron-kerbosch", alpha=0.5)

    def test_invalid_alpha(self):
        with pytest.raises(ProbabilityError):
            EnumerationRequest(algorithm="mule", alpha=1.5)

    # ``True`` was taken as 1.0 and ``"0.5"`` as 0.5; the wire codec
    # refuses both.
    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_alpha_rejects_non_real_values(self, value):
        with pytest.raises(ParameterError, match="alpha must be a real number"):
            EnumerationRequest(algorithm="mule", alpha=value)

    def test_alpha_required_except_top_k(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="mule")
        assert EnumerationRequest(algorithm="top_k", k=3).alpha is None

    def test_top_k_requires_positive_k(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="top_k")
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="top_k", k=0)
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="top_k", k=3, min_size=0)

    def test_k_rejected_outside_top_k(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="mule", alpha=0.5, k=3)

    def test_large_requires_size_threshold(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="large", alpha=0.5)
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="large", alpha=0.5, size_threshold=1)

    def test_size_threshold_rejected_outside_large(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="mule", alpha=0.5, size_threshold=3)

    def test_workers_must_be_positive(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="mule", alpha=0.5, workers=0)

    # A float would run on the python kernel but not reach the native one
    # (or fail deep inside the run), and bool is an int subclass the wire
    # codec refuses too.
    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [2.5, True])
    def test_integer_field_rejects_non_integers(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be an integer"):
            EnumerationRequest(**INTEGER_FIELDS[field], **{field: value})

    def test_parallel_only_for_mule_family(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="noip", alpha=0.5, workers=2)
        # fast-mule may shard like mule.
        EnumerationRequest(algorithm="fast", alpha=0.5, workers=2)

    def test_serial_execution_rejects_many_workers(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(
                algorithm="mule", alpha=0.5, workers=2, execution="serial"
            )

    def test_unknown_execution_and_backend(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="mule", alpha=0.5, execution="threads")
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="mule", alpha=0.5, backend="threads")

    def test_unknown_kernel(self):
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="mule", alpha=0.5, kernel="simd")

    def test_unknown_kernel_error_lists_the_kernels(self):
        expected = re.escape("expected one of ('auto', 'python', 'vector')")
        with pytest.raises(ParameterError, match=expected):
            EnumerationRequest(algorithm="mule", alpha=0.5, kernel="simd")

    def test_kernel_accepted_for_mule_family(self):
        for algorithm in ("mule", "fast", "large", "top_k"):
            kwargs = {"alpha": 0.5}
            if algorithm == "large":
                kwargs["size_threshold"] = 3
            if algorithm == "top_k":
                kwargs = {"k": 3}
            request = EnumerationRequest(
                algorithm=algorithm, kernel="vector", **kwargs
            )
            assert request.kernel == "vector"

    def test_vector_kernel_rejected_for_noip(self):
        # DFS-NOIP is the from-scratch baseline; accelerating it would
        # change what the Figure 1 experiment measures.
        with pytest.raises(ParameterError):
            EnumerationRequest(algorithm="noip", alpha=0.5, kernel="vector")
        # 'python' and 'auto' stay valid (auto resolves to python).
        assert (
            EnumerationRequest(
                algorithm="noip", alpha=0.5, kernel="python"
            ).kernel
            == "python"
        )
        assert EnumerationRequest(algorithm="noip", alpha=0.5).kernel == "auto"


class TestExecutionResolution:
    def test_default_is_serial(self):
        assert not EnumerationRequest(algorithm="mule", alpha=0.5).parallel

    def test_many_workers_is_parallel(self):
        assert EnumerationRequest(algorithm="mule", alpha=0.5, workers=2).parallel

    def test_none_workers_is_parallel(self):
        assert EnumerationRequest(algorithm="mule", alpha=0.5, workers=None).parallel

    def test_forced_parallel_single_worker(self):
        request = EnumerationRequest(
            algorithm="mule", alpha=0.5, workers=1, execution="parallel"
        )
        assert request.parallel
        assert request.label == "parallel-mule"

    def test_compile_options(self):
        request = EnumerationRequest(algorithm="mule", alpha=0.5)
        assert request.compile_alpha() == 0.5
        assert request.compile_size_threshold() is None
        unpruned = EnumerationRequest(algorithm="mule", alpha=0.5, prune_edges=False)
        assert unpruned.compile_alpha() is None
        snf = EnumerationRequest(algorithm="large", alpha=0.5, size_threshold=4)
        assert snf.compile_size_threshold() == 4
        plain = EnumerationRequest(
            algorithm="large",
            alpha=0.5,
            size_threshold=4,
            shared_neighborhood_filtering=False,
        )
        assert plain.compile_size_threshold() is None

    def test_with_alpha(self):
        request = EnumerationRequest(algorithm="mule", alpha=0.5)
        assert request.with_alpha(0.25).alpha == 0.25
        assert request.alpha == 0.5  # original untouched
