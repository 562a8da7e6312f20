"""Every result's ``to_dict()``: its keys in order, strict JSON, and the
fields a report leaves out.  The golden digests sort keys, so they pin the
values but not the order."""

import json

import numpy as np
import pytest

from quadlab import (
    Exponents,
    NoiseModel,
    Sampler,
    asymptotic_verdict,
    certify,
    default_exponent_grid,
    derivation_chain_check,
    detect_inner_product,
    equation_params,
    euclidean,
    exponent_scan,
    make_perturbed,
    p_norm,
    random_symmetric_form,
    shell_delta_profile,
    stability_constants,
    verify_czerwik,
    weighted_quadratic,
)

PARAMS_KEYS = ["r", "s", "rational_r"]
CONSTANTS_KEYS = ["d", "delta", "M", "K", "C_restricted", "C_global", "C_approx"]
CERTIFICATE_KEYS = [
    "params",
    "d",
    "constants",
    "delta_hat",
    "delta_source",
    "probe_count",
    "evenness_defect",
    "max_deviation",
    "bound_used",
    "pass",
    "inconclusive",
    "warnings",
    "sample_count",
    "seed",
    "max_iters",
    "tol",
    "extraction_iterations_max",
]
CZERWIK_KEYS = [
    "delta_hat",
    "bound",
    "max_deviation",
    "within_bound",
    "homogeneity_defects",
    "homogeneity_ok",
    "probe_count",
    "sample_count",
    "seed",
    "warnings",
]
VERDICT_KEYS = [
    "accepted",
    "max_defect",
    "max_normalized_defect",
    "basis_witness_max",
    "recovered_gram",
    "bilinearity_defect",
    "gram_min_eigenvalue",
    "tol",
    "sample_count",
    "seed",
    "space",
]

SAMPLER = Sampler.restricted_pairs(3, 64, 2.0)
THIRDS = equation_params("1/3")


def _map():
    form = random_symmetric_form(euclidean(2), euclidean(2), seed=1)
    return make_perturbed(form, NoiseModel.uniform_bounded(0.05, seed=2))


def _strict(d):
    json.dumps(d, allow_nan=False)
    return d


@pytest.mark.parametrize(
    "r, keys",
    [(0.3, PARAMS_KEYS), ("1/3", PARAMS_KEYS + ["r_exact"])],
    ids=["float", "exact"],
)
def test_equation_params(r, keys):
    d = _strict(equation_params(r).to_dict())
    assert list(d) == keys


def test_stability_constants():
    d = _strict(stability_constants(THIRDS, 1.0, 0.1).to_dict())
    assert list(d) == CONSTANTS_KEYS
    assert (d["M"], d["K"]) == (20.0, 80.0)


def test_certificate_nests_its_parts_and_leaves_out_the_samples():
    # Samples are kept only when asked for, and never reported.
    cert = certify(_map(), THIRDS, 1.0, euclidean(2), SAMPLER, probe_count=4)
    kept = certify(_map(), THIRDS, 1.0, euclidean(2), SAMPLER, probe_count=4, keep_samples=True)
    assert cert.samples is None and kept.samples is not None
    assert kept == cert and kept.to_dict() == cert.to_dict()
    d = _strict(cert.to_dict())
    assert list(d) == CERTIFICATE_KEYS
    assert list(d["params"]) == PARAMS_KEYS + ["r_exact"]
    assert list(d["constants"]) == CONSTANTS_KEYS
    assert d["pass"] is cert.passed
    assert type(d["warnings"]) is list


def test_czerwik_report_names_its_scales():
    report = verify_czerwik(_map(), euclidean(2), SAMPLER, probe_count=4)
    d = _strict(report.to_dict())
    assert list(d) == CZERWIK_KEYS
    assert list(d["homogeneity_defects"]) == ["0.5", "2.0", "3.0"]
    assert list(d["homogeneity_defects"].values()) == list(report.homogeneity_defects.values())


def test_derivation_chain_report():
    d = _strict(derivation_chain_check(_map(), THIRDS, euclidean(2), SAMPLER).to_dict())
    assert list(d) == ["defects", "max_defect", "params", "sample_count", "seed"]
    assert list(d["defects"]) == [
        "odd_r_scaling",
        "odd_s_scaling",
        "even_doubling",
        "even_cross_expansion",
    ]
    assert d["max_defect"] == max(d["defects"].values())


def test_inner_product_verdict_accepted():
    space = weighted_quadratic(np.diag([1.0, 2.0]))
    d = _strict(detect_inner_product(space, SAMPLER).to_dict())
    assert list(d) == VERDICT_KEYS
    assert d["accepted"] is True
    assert type(d["recovered_gram"]) is list
    assert np.allclose(d["recovered_gram"], [[1.0, 0.0], [0.0, 2.0]])
    assert d["space"]["gram"] == [[1.0, 0.0], [0.0, 2.0]]


def test_inner_product_verdict_rejected():
    d = _strict(detect_inner_product(p_norm(2, 1.0), SAMPLER).to_dict())
    assert list(d) == VERDICT_KEYS
    assert d["accepted"] is False
    assert d["recovered_gram"] is None


def test_exponent_scan_table_and_its_entries():
    grid = default_exponent_grid()[:3] + [Exponents(2, 2, 2, 2)]
    table = exponent_scan(euclidean(2), equation_params("1/2"), grid, SAMPLER)
    d = _strict(table.to_dict())
    assert list(d) == ["entries", "flagged", "tol", "sample_count", "seed"]
    assert d["flagged"] == [[2.0, 2.0, 2.0, 2.0]]
    for entry, exps in zip(d["entries"], grid):
        assert list(entry) == ["exponents", "sup_defect", "excluded_witnesses", "error"]
        assert entry["exponents"] == list(exps.astuple())


def test_shell_profile_and_verdict():
    profile = shell_delta_profile(_map(), THIRDS, euclidean(2), 0, 4, 8, seed=4)
    d = _strict(profile.to_dict())
    assert list(d) == ["n_min", "n_max", "deltas", "per_shell_count", "seed"]
    assert d["deltas"] == profile.deltas.tolist()
    v = _strict(asymptotic_verdict(profile, 0.1).to_dict())
    assert list(v) == [
        "verdict",
        "tail_max",
        "tail_window",
        "decay_tol",
        "nondecreasing_last_half",
    ]
