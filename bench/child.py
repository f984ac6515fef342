"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--setup-only] [--trace SPANS.jsonl]

Set-up imports hkrlab from the checkout's ``src`` and generates the seeded
inputs; the verification runs them through the public entry points only
(``cli_report.run_suite`` and the ``hkr_local`` functions).  The last line
of standard output is one JSON object: the monotonic clock when the first
check started and when the verdict was known, the claims attempted and
failed, and a digest of the report.  With ``--trace`` the layer tracer is
installed after set-up and the per-layer metrics are added.
"""

import argparse
import hashlib
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SUITE_WORKLOADS = {
    "verify-all": {"suite": "all", "nerve": "circle"},
    "wedge-sphere2": {"suite": "comparison_wedge", "nerve": "sphere2"},
}
# LocalModel(m, r, D) points of the desk workload
DESK_MODELS = [(1, 3, 3), (1, 3, 4), (2, 2, 4), (1, 4, 4)]
# one zeta_checks call at rank 4 takes 86-94 s; gamma and route still run there
DESK_ZETA_SKIPPED = {(1, 4, 4)}
DESK_RANDOM_SPLITTINGS = 1
WORKLOADS = tuple(SUITE_WORKLOADS) + ("hkr-desk",)


def import_hkrlab():
    sys.path.insert(0, str(SRC))
    import hkrlab

    where = Path(hkrlab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"hkrlab imported from {where}, not from {SRC}")


def random_chi(m, r, rng):
    """An m x r splitting of polynomial strings over x1..xm.

    Entries are drawn as the hkr-maps check draws them: every monomial of
    degree <= 1, in the algebra's monomial order, with a coefficient in
    [-2, 2].
    """
    monomials = [""] + [f"x{i + 1}" for i in reversed(range(m))]
    rows = []
    for _ in range(m):
        row = []
        for _ in range(r):
            text = ""
            for name in monomials:
                c = rng.randint(-2, 2)
                if c:
                    term = f"{abs(c)}*{name}" if name else str(abs(c))
                    text += ("-" if c < 0 else "+") + term
            row.append(text.lstrip("+") or "0")
        rows.append(row)
    return rows


def setup_suite(workload, seed):
    from hkrlab.cli_report import SuiteConfig

    config = SuiteConfig(seed=seed, **SUITE_WORKLOADS[workload])
    config.load_nerve()
    return config


def verify_suite(config):
    from hkrlab import cli_report

    report = cli_report.run_suite(config)
    text = report.to_json()
    required = [r for r in report.records if r["status"] != "exploratory"]
    failed = [r["id"] for r in required if r["status"] != "pass"]
    return len(required), failed, text


def setup_desk(seed):
    import hkrlab.hkr_local  # noqa: F401  (set-up pays for the import)

    cases = []
    for m, r, D in DESK_MODELS:
        rng = random.Random(f"hkr-desk:{seed}:{m}:{r}:{D}")
        splittings = [None] + [random_chi(m, r, rng) for _ in range(DESK_RANDOM_SPLITTINGS)]
        cases += [((m, r, D), chi) for chi in splittings]
    return cases


def verify_desk(cases):
    # attribute lookups at call time, so that a traced run sees the wrappers
    from hkrlab import hkr_local

    results = []
    for (m, r, D), chi in cases:
        model = hkr_local.LocalModel(m, r, D, chi=chi)
        claims = {f"gamma.{k}": v for k, v in model.gamma_checks().items()}
        if (m, r, D) not in DESK_ZETA_SKIPPED:
            claims.update({f"zeta.{k}": v for k, v in hkr_local.zeta_checks(model.ext, window=D).items()})
        claims["route"] = hkr_local.compare_hkr_ac(model)
        results.append({"model": [m, r, D], "chi": chi, "claims": {k: bool(v) for k, v in claims.items()}})
    failed = [
        f"{tuple(res['model'])}:{name}" for res in results for name, ok in res["claims"].items() if not ok
    ]
    attempted = sum(len(res["claims"]) for res in results)
    return attempted, failed, json.dumps(results, sort_keys=True) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default="", help="write recorded spans to this file")
    args = parser.parse_args(argv)

    import_hkrlab()
    if args.workload == "hkr-desk":
        inputs = setup_desk(args.seed)
        verify = verify_desk
    else:
        inputs = setup_suite(args.workload, args.seed)
        verify = verify_suite
    if args.setup_only:
        print(json.dumps({"first_check": time.monotonic()}))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer(f"{args.workload}:{args.seed}")
        tracer.install()
    first_check = time.monotonic()
    attempted, failed, text = verify(inputs)
    verdict = time.monotonic()
    out = {
        "first_check": first_check,
        "verdict": verdict,
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
    }
    if tracer is not None:
        tracer.write_spans(args.trace)
        out["layers"] = tracer.layer_metrics()
        out["layers"].update({f"{name}.s": s for name, s in tracer.check_seconds().items()})
        out["leaks"] = tracer.unwrapped_references()
        out["spans"] = tracer.span_count
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
