"""Output checks for the benchmark's requests.

Each check takes the program's output and returns None when it is right, or
a one-line reason when it is not.  The expected values are recorded here,
from the program as it was when the benchmark was defined, so that a change
to the program cannot move its own oracle.
"""

from __future__ import annotations

import json

# the check names that `np3kit verify <entry> --suite all` reports, by suite
VERIFY_CHECKS = {
    "sachs": ("sachs_shear", "sachs_del_rho", "sachs_beta_eps", "sachs_transverse_ricci",
              "sachs_xi_rho", "ricci_from_sachs", "spin_coefficient_routes"),
    "bianchi": ("bianchi_xi_component", "bianchi_del_component"),
    "kn": ("metric_compatibility", "torsion_free", "riemann_antisym_first_pair",
           "riemann_antisym_last_pair", "riemann_pair_symmetry", "riemann_first_bianchi",
           "ricci_symmetric", "kulkarni_nomizu", "scalar_convention", "np_metric"),
    "ts": ("ts_alpha_beta_xi", "ts_R_del_delbar_xi", "ts_R_del_xi_xi", "ts_R_delbar_xi_xi",
           "ts_ricci_del_del", "ts_ricci_del_xi", "ts_ricci_xi_xi", "ts_ricci_del_delbar",
           "ts_scalar_curvature", "ts_nabla_xi", "ts_div_2theta", "ts_grad_norm_2rho2",
           "ts_laplacian_closed_form", "ts_bochner"),
    "xi": ("laplacian_routes", "divergence_routes", "bochner_reduction",
           "grad_norm_spin_identity", "epsilon_purely_imaginary"),
}

# the catalog's expected structure verdict of every entry
VERDICTS = {
    "c6": "C6",
    "example1": "TransSasakian",
    "example2": "TransSasakian",
    "flat_cosymplectic": "Cosymplectic",
    "flat_radial": "C5",
    "h2xr": "Cosymplectic",
    "kenmotsu": "Kenmotsu",
    "nil3": "AlphaSasakian",
    "sasakian": "Sasakian",
    "sol": "NotTransSasakian",
}

SWEEP_HEADER = "kappa,tau,u,obstruction,expected_zero"
SWEEP_ROWS = 50 * 50 * 50

SPIN_KEYS = ("kappa", "sigma", "rho", "beta_np", "epsilon_np")
POINT_RTOL = 1e-12


def check_verify(text: str, entry: str, samples: int, seed: int):
    """`verify --format json` output: passes, and reports the recorded checks."""
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return f"verify output is not JSON: {exc}"
    if rep.get("pass") is not True:
        return f"verify {entry}: pass is {rep.get('pass')!r}"
    if rep.get("spec", {}).get("name") != entry:
        return f"verify {entry}: report is for {rep.get('spec', {}).get('name')!r}"
    if rep.get("samples") != {"seed": seed, "count": samples}:
        return f"verify {entry}: samples {rep.get('samples')!r}"
    got = {(suite, chk.get("name")) for suite, checks in rep.get("suites", {}).items()
           for chk in checks}
    want = {(suite, name) for suite, names in VERIFY_CHECKS.items() for name in names}
    if got != want:
        return (f"verify {entry}: check names differ "
                f"(missing {sorted(want - got)[:3]}, extra {sorted(got - want)[:3]})")
    return None


def check_run_all(results: dict):
    """`catalog.run_all` result: every entry passes with its recorded verdict."""
    if set(results) != set(VERDICTS):
        return f"run_all entries {sorted(results)}"
    for name, res in results.items():
        if res.get("pass") is not True:
            bad = [c["name"] for c in res.get("checks", []) if not c.get("pass")]
            return f"run_all {name}: pass is {res.get('pass')!r} (failing {bad[:3]})"
        if res.get("verdict") != VERDICTS[name]:
            return f"run_all {name}: verdict {res.get('verdict')!r}, want {VERDICTS[name]!r}"
    return None


def check_sol(result: dict):
    if result.get("pass") is not True or result.get("admits_trans_sasakian") is not False:
        return "sol_obstruction does not pass"
    return None


def check_sweep(text: str):
    """`ektau --sweep` CSV: the header and one five-field row per grid point."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return f"sweep header {lines[:1]!r}"
    if len(lines) != SWEEP_ROWS + 1:
        return f"sweep has {len(lines) - 1} rows, want {SWEEP_ROWS}"
    for line in (lines[1], lines[-1]):
        fields = line.split(",")
        if len(fields) != 5 or fields[4] not in ("0", "1"):
            return f"sweep row {line!r}"
        try:
            [float(f) for f in fields[:4]]
        except ValueError:
            return f"sweep row {line!r}"
    return None


def check_point(single: dict, batched: dict, index: int):
    """One-point spin coefficients against the batched evaluation of the same point.

    Agreement is relative, |a - b| <= 1e-12 * max(1, |b|); the floor of 1
    keeps coefficients that vanish identically comparable.
    """
    for key in SPIN_KEYS:
        a, b = single.get(key), complex(batched[key][index])
        if a is None or not (abs(a - b) <= POINT_RTOL * max(1.0, abs(b))):
            return f"{key} at point {index}: single {a!r}, batched {b!r}"
    return None


def check_verdict(verdict: str, entry: str):
    if verdict != VERDICTS[entry]:
        return f"classify {entry}: verdict {verdict!r}, want {VERDICTS[entry]!r}"
    return None
