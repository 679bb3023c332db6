"""Correctness checks on the outputs of each benchmark operation.

Every check compares flatmin's output with the closed forms in
``reference.py`` or with a property of the method (a bound, a rerun), never
with a stored copy of earlier output. Each returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import reference as ref

#: Logged trace at the landing point against m2*sqrt(D^2 + 4c^2), relative.
#: The fixed-step flow agrees to about 3e-11 relative on the escape runs.
TRACE_RTOL = 1e-8
#: Landing point and distance of a certificate, absolute. Over the
#: certify-manifold domain (|t| <= 1.2, normal offset <= 0.03) the fixed-step
#: flow lands at most 1.5e-5 from the exact point, at the sharpest offsets.
POINT_ATOL = 1e-4
#: Flat-gradient norm of a certificate against the closed form, absolute plus
#: relative. Over the same domain the certifier's central difference is off
#: by at most 5e-6 relative, and by 2e-8 at the flat points.
FLAT_ATOL = 1e-6
FLAT_RTOL = 1e-4
#: The pass flag is compared only when the closed-form distance and flat
#: gradient are farther than this share from eps and eps_prime.
FLAG_MARGIN = 1e-3
#: Additive slack of the descent inequality, as in the package.
DESCENT_SLACK = 1e-12
#: Logged loss and gradient norm against the closed form, relative.
VALUE_RTOL = 1e-12


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_trajectory(traj: dict, m2: float, c: float, initial_trace: float | None = None) -> list[str]:
    """Logged trace, loss, gradient norm and descent inequality of one run.

    ``traj`` is the ``Trajectory.to_dict()`` layout (also the per-seed JSON
    artifact). Every logged iterate must carry ``x``.
    """
    problems = []
    records = traj["records"]
    sched = traj["schedule"]
    eta, eta_prime, beta = sched["eta"], sched["eta_prime"], sched["beta_hat"]
    for r in records:
        x = r["x"]
        if r["tr_phi"] is not None:
            want = ref.landing_trace(x, m2, c)
            if not _close(r["tr_phi"], want, TRACE_RTOL):
                problems.append(f"t={r['t']}: tr_phi {r['tr_phi']!r} vs closed form {want!r}")
        f, g = ref.loss(x, m2, c), ref.grad_norm(x, m2, c)
        if not (_close(r["f"], f, VALUE_RTOL, 1e-300) and _close(r["grad_norm"], g, VALUE_RTOL, 1e-300)):
            problems.append(f"t={r['t']}: logged f/grad_norm {r['f']!r}/{r['grad_norm']!r} vs {f!r}/{g!r}")
        if r["f_after"] is not None:
            if r["branch"] == "perturbed":
                step, vsq = eta, (r["v_norm"] or 0.0) ** 2
            else:
                step, vsq = eta_prime, 0.0
            bound = f - 0.5 * step * g * g + 0.5 * beta * step * step * vsq
            if r["f_after"] - bound > DESCENT_SLACK:
                problems.append(f"t={r['t']}: descent inequality off by {r['f_after'] - bound:.3e}")
    if initial_trace is not None and not _close(records[0]["tr_phi"], initial_trace, 0.0, 1e-9):
        problems.append(f"initial trace {records[0]['tr_phi']!r}, expected {initial_trace!r}")
    if traj["descent_violations"] != 0:
        problems.append(f"{traj['descent_violations']} descent-inequality violations")
    if traj["n_perturbed"] <= 0:
        problems.append("no perturbed steps")
    return problems


def escape_step(traj: dict, m2: float, c: float, tau: float = 0.1) -> int | None:
    """First logged step whose closed-form landing trace is at most (1 + tau) * tr_min."""
    limit = (1.0 + tau) * ref.trace_min(m2, c)
    for r in traj["records"]:
        if ref.landing_trace(r["x"], m2, c) <= limit:
            return r["t"]
    return None


def check_final_traces(finals: list[float], m2: float, c: float) -> list[str]:
    """The median final trace over seeds lies within 25 % of the minimal trace."""
    finals = sorted(finals)
    k = len(finals)
    median = finals[k // 2] if k % 2 else 0.5 * (finals[k // 2 - 1] + finals[k // 2])
    tr_min = ref.trace_min(m2, c)
    if abs(median - tr_min) > 0.25 * tr_min:
        return [f"median final trace {median:.6g} not within 25% of {tr_min:.6g}"]
    return []


def check_csv_matches(csv_text: str, traj: dict) -> list[str]:
    """The CSV artifact carries the same records as the JSON artifact, value for value."""
    lines = csv_text.splitlines()
    records = traj["records"]
    if len(lines) != len(records) + 1:
        return [f"CSV has {len(lines) - 1} rows, JSON has {len(records)} records"]
    header = lines[0].split(",")
    problems = []
    for line, r in zip(lines[1:], records):
        row = dict(zip(header, line.split(",")))
        want = {"t": r["t"], "branch": r["branch"], "f": r["f"], "grad_norm": r["grad_norm"],
                "v_norm": r["v_norm"], "tr_phi": r["tr_phi"]}
        want.update({f"x{j}": v for j, v in enumerate(r["x"])})
        for key, value in want.items():
            text = row.get(key)
            got = None if text in (None, "") else (text if key == "branch" else float(text))
            if (value if key != "t" else float(value)) != got:
                problems.append(f"t={r['t']}: CSV {key}={text!r}, JSON {value!r}")
                break
    return problems


def check_identical(first: dict[str, bytes], second: dict[str, bytes]) -> list[str]:
    """Two executions of the same seed wrote byte-identical artifacts."""
    if first.keys() != second.keys():
        return [f"artifact sets differ: {sorted(first)} vs {sorted(second)}"]
    return [f"{name} differs between reruns" for name in first if first[name] != second[name]]


def check_certificate(cert: dict, m2: float, c: float) -> list[str]:
    """Landing point, distance, flat-gradient norm and flag of one certificate."""
    x = cert["x"]
    phi = ref.landing_point(x, c)
    dist = math.hypot(x[0] - phi[0], x[1] - phi[1])
    flat = ref.flat_grad_norm(phi, m2, c)
    problems = []
    if max(abs(a - b) for a, b in zip(cert["phi_x"], phi)) > POINT_ATOL:
        problems.append(f"landing point {cert['phi_x']} vs closed form {list(phi)}")
    if abs(cert["dist"] - dist) > POINT_ATOL:
        problems.append(f"distance {cert['dist']!r} vs closed form {dist!r}")
    if not _close(cert["flat_grad_norm"], flat, FLAT_RTOL, FLAT_ATOL):
        problems.append(f"flat-gradient norm {cert['flat_grad_norm']!r} vs closed form {flat!r}")
    eps, eps_prime = cert["eps"], cert["eps_prime"]
    decided = abs(dist - eps) > FLAG_MARGIN * eps and abs(flat - eps_prime) > FLAG_MARGIN * eps_prime
    if decided and cert["passed"] != ref.certificate_flag(dist, flat, eps, eps_prime):
        problems.append(f"passed={cert['passed']} but closed form says {not cert['passed']}")
    return problems


# ----- oracle reports (OracleReport.to_dict() layout) --------------------


def _report_passed(rep: dict) -> list[str]:
    if not rep["passed"] or rep["not_applicable"]:
        return [f"{rep['name']}: report passed={rep['passed']} not_applicable={rep['not_applicable']}"]
    return []


def check_sphere_report(rep: dict, d: int, n: int, n_sigma: float = 4.0) -> list[str]:
    """Sample mean and second moment of the sphere sampler within CLT scales of 0 and I/d."""
    mean_inf, fro = rep["measured"]
    problems = _report_passed(rep)
    if mean_inf > n_sigma * math.sqrt(1.0 / (d * n)):
        problems.append(f"sphere mean {mean_inf:.3e} beyond {n_sigma} standard errors")
    if fro > n_sigma * math.sqrt((1.0 - 1.0 / d) / n):
        problems.append(f"sphere second moment deviation {fro:.3e} beyond {n_sigma} standard errors")
    return problems


def rs_estimator_reference(x, rho: float, m2: float, c: float) -> list[float]:
    """0.5*rho^2 times the gradient of the normalized trace m2*(u^2+v^2), projected off grad f."""
    t = [2.0 * m2 * x[0], 2.0 * m2 * x[1]]
    r = x[0] * x[1] - c
    g = [2.0 * m2 * r * x[1], 2.0 * m2 * r * x[0]]
    gn = math.hypot(*g)
    if gn > 1e-12:
        dot = (t[0] * g[0] + t[1] * g[1]) / (gn * gn)
        t = [t[0] - dot * g[0], t[1] - dot * g[1]]
    return [0.5 * rho * rho * v for v in t]


def check_rs_estimator_report(rep: dict, x, rho: float, m2: float, c: float, rel_tol: float = 0.1) -> list[str]:
    """Mean perturbation within rel_tol of the closed-form 0.5*rho^2*grad(trace) (floor rho^3)."""
    problems = _report_passed(rep)
    for got, want in zip(rep["measured"], rs_estimator_reference(x, rho, m2, c)):
        if abs(got - want) > max(rel_tol * abs(want), rho**3):
            problems.append(f"rs estimator component {got!r} vs closed form {want!r}")
    return problems


def check_rs_decay_report(rep: dict) -> list[str]:
    """Remainder shrink factor between the radii within 25 % of (rho_hi/rho_lo)^2."""
    want = (rep["extras"]["rho_hi"] / rep["extras"]["rho_lo"]) ** 2
    problems = _report_passed(rep)
    if abs(rep["measured"] - want) > 0.25 * want:
        problems.append(f"rs decay factor {rep['measured']!r}, theory {want!r}")
    return problems


def check_dfactor_report(rep: dict, d: int, n: int, y: list[float]) -> list[str]:
    """Curvature-signal ratio within 10 % of d, and both signals against the closed-form trace.

    At the canonical minimum (x_i^2 = 2*y_i) of the orthogonal quadratic
    model the Hessian is diag((1.5*x_i^2 - y_i)/n) = diag(2*y_i/n) on the
    first n coordinates, so the normalized trace is 2*sum(y)/(n*d).
    """
    tr_bar = 2.0 * sum(y) / (n * d)
    ex = rep["extras"]
    problems = _report_passed(rep)
    if abs(rep["measured"] - d) > 0.1 * d:
        problems.append(f"d={d}: curvature-signal ratio {rep['measured']!r}")
    if not _close(ex["reference_rs"], tr_bar, 1e-12):
        problems.append(f"d={d}: reference trace {ex['reference_rs']!r} vs closed form {tr_bar!r}")
    # Second differences of the quartic per-sample loss carry a rho^2/4 bias.
    if not _close(ex["measured_sa"], d * tr_bar, 1e-3):
        problems.append(f"d={d}: SA signal {ex['measured_sa']!r} vs {d * tr_bar!r}")
    if not _close(ex["measured_rs"], tr_bar, 0.1):
        problems.append(f"d={d}: RS signal {ex['measured_rs']!r} vs {tr_bar!r}")
    return problems


def pl_reference(points, m2: float, c: float) -> tuple[float, float]:
    """Closed-form PL and gradient-Lipschitz estimates over ``points``.

    With f = m2*r^2 (r = u*v - c) and zero loss at the landing point,
    |grad f|^2 / (2 f) = 2*m2*|x|^2 and |grad f(x)| / |x - phi(x)| follow
    from the closed-form landing point. Points closer than 1e-14 to the
    minima set are skipped, as in the estimator.
    """
    alpha, beta = math.inf, 0.0
    for p in points:
        phi = ref.landing_point(p, c)
        dist = math.hypot(p[0] - phi[0], p[1] - phi[1])
        if ref.loss(p, m2, c) < 1e-14 or dist < 1e-14:
            continue
        alpha = min(alpha, 2.0 * m2 * (p[0] ** 2 + p[1] ** 2))
        beta = max(beta, ref.grad_norm(p, m2, c) / dist)
    return alpha, beta


def check_pl(alpha: float, beta: float, points, m2: float, c: float, rtol: float = 1e-4) -> list[str]:
    want_a, want_b = pl_reference(points, m2, c)
    problems = []
    if not _close(alpha, want_a, rtol):
        problems.append(f"PL constant {alpha!r} vs closed form {want_a!r}")
    if not _close(beta, want_b, rtol):
        problems.append(f"gradient-Lipschitz estimate {beta!r} vs closed form {want_b!r}")
    return problems


def check_descent_report(rep: dict, traj: dict, m2: float, c: float) -> list[str]:
    """The descent-lemma report passes and covers every logged step, which hold under the closed form."""
    problems = _report_passed(rep)
    logged = sum(r["f_after"] is not None for r in traj["records"])
    if rep["n_samples"] != logged:
        problems.append(f"descent report covers {rep['n_samples']} of {logged} logged steps")
    return problems + check_trajectory(traj, m2, c)
