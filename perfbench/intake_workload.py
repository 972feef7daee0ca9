"""Archive-intake workload: box conditions, remediation plans, sortie identifiers.

Per-item pure-Python object churn in two layers no other workload
touches: `preservation` samples, plans and aggregates ~200k boxes, and
`sortie` parses and re-formats ~100k identifiers.
"""
from __future__ import annotations

import json
import math
import random
import string
from collections import Counter
from types import SimpleNamespace

from scancell import preservation, sortie
from scancell.preservation import MouldState, Routing, ScanRoute, Step

from common import PassResult, Workload, median_of, sha256_hex
from spans import clock

BOXES = 200_000
IDENTIFIERS = 100_000
RATE_TOLERANCE = 0.002
# 0.2 pp alone is only ~2.4 sigma for a 17% rate over 200k boxes, so a
# correct sampler would fail it on a few percent of seeds
RATE_SIGMAS = 5.0
STEP_ORDER = tuple(Step)
ROUTINGS = tuple(Routing)
SCAN_ROUTES = tuple(ScanRoute)
MOULD_STATES = tuple(MouldState)


def layers(tracer) -> SimpleNamespace:
    wrap = tracer.wrap
    return SimpleNamespace(
        sample=wrap("preservation.sample", preservation.sample_boxes, work=lambda out, args: len(out)),
        plan=wrap("preservation.plan", preservation.plan_remediation),
        aggregate=wrap("preservation.aggregate", preservation.aggregate_rates, work=lambda out, args: out.n),
        parse=wrap("sortie.parse", sortie.parse),
        format=wrap("sortie.format", sortie.canonical_format),
    )


def _letters(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choices(string.ascii_uppercase, k=rng.randint(low, high)))


def _identifier(rng: random.Random):
    """One identifier string and the value it must parse to (acceptance criterion 8's families)."""
    family = rng.randrange(3)
    film = rng.randint(1, 99_999)
    if family == 0:
        contract, country = rng.randint(1, 999), _letters(rng, 2, 2)
        return f"{contract}/{country}/{film:04d}", sortie.DosContract(contract, country, film)
    if family == 1:
        unit, service = str(rng.randint(1, 999)), _letters(rng, 3, 5)
        return f"{unit}/{service}/{film:04d}", sortie.MilitaryUnit(unit, service, film)
    company, country, year = _letters(rng, 2, 4), _letters(rng, 2, 2), rng.randint(0, 99)
    return (
        f"{company}/{country}/{year:02d}/{film:04d}",
        sortie.CommercialSurvey(company, country, year, film),
    )


def build(seed: int, scale: float) -> SimpleNamespace:
    rng = random.Random(seed)
    pairs = [_identifier(rng) for _ in range(max(1, round(IDENTIFIERS * scale)))]
    return SimpleNamespace(
        rates=preservation.IssueRates(),
        boxes=max(1, round(BOXES * scale)),
        sample_seed=rng.randrange(2**31),
        dependence=rng.uniform(0.1, 0.5),
        texts=[text for text, _ in pairs],
        expected=[value for _, value in pairs],
    )


def _expected_rates(rates, dependence: float) -> dict[str, float]:
    """Configured marginals; the merged damage flag mixes the independent and comonotone draws."""
    merged_comonotone = max(rates.ripped, rates.emulsion_peeling)
    merged = (1 - dependence) * preservation.implied_rips_or_peeling_rate(rates)
    return {
        "mould": rates.mould,
        "blocking": rates.blocking,
        "cleaning": rates.cleaning,
        "tape": rates.tape,
        "curling": rates.curling,
        "rips_or_peeling": merged + dependence * merged_comonotone,
    }


def _rates_ok(observed, expected: dict[str, float]) -> bool:
    n = observed.n
    return all(
        abs(getattr(observed, name) - p)
        <= max(RATE_TOLERANCE, RATE_SIGMAS * math.sqrt(p * (1 - p) / n))
        for name, p in expected.items()
    )


def _plan_shapes(boxes, plans) -> Counter:
    """Count (step positions, routing, scan route, mould) over all boxes."""
    return Counter(
        (
            tuple(map(STEP_ORDER.index, plan.steps)),
            ROUTINGS.index(plan.routing),
            SCAN_ROUTES.index(plan.scan_route),
            MOULD_STATES.index(box.mould),
        )
        for box, plan in zip(boxes, plans)
    )


def _shape_ok(shape) -> bool:
    """Steps in flowchart order, each once; mould, and only mould, isolates."""
    steps, routing, _, mould = shape
    isolated = ROUTINGS[routing] is Routing.MOULD_ISOLATED
    has_mould = MOULD_STATES[mould] is not MouldState.NONE
    return all(a < b for a, b in zip(steps, steps[1:])) and isolated == has_mould


def run_pass(layer, tracer, inputs) -> PassResult:
    result = PassResult(work={"boxes": inputs.boxes, "ids": len(inputs.texts)})

    def boxes() -> bool:
        start = clock()
        sampled = layer.sample(inputs.boxes, inputs.sample_seed, inputs.rates, dependence=inputs.dependence)
        plans = [layer.plan(box) for box in sampled]
        observed = layer.aggregate(sampled)
        result.timers["boxes_s"] = clock() - start
        shapes = _plan_shapes(sampled, plans)
        result.stats["observed_rates"] = observed.to_json_dict()
        result.stats["plan_shapes_sha256"] = sha256_hex(json.dumps(sorted(shapes.items())))
        return all(map(_shape_ok, shapes)) and _rates_ok(
            observed, _expected_rates(inputs.rates, inputs.dependence)
        )

    def identifiers() -> bool:
        start = clock()
        parsed = [layer.parse(text) for text in inputs.texts]
        formatted = [layer.format(value) for value in parsed]
        result.timers["ids_s"] = clock() - start
        result.stats["ids_sha256"] = sha256_hex("\n".join(formatted))
        return parsed == inputs.expected and formatted == inputs.texts

    result.run_op(tracer, "boxes", boxes)
    result.run_op(tracer, "identifiers", identifiers)
    return result


def summarize(passes: list[PassResult], pass_s: float) -> dict:
    work = passes[0].work
    boxes_s, ids_s = median_of(passes, "boxes_s"), median_of(passes, "ids_s")
    return {
        "boxes_per_s": (work["boxes"] / boxes_s if boxes_s else None, "1/s"),
        "ids_per_s": (work["ids"] / ids_s if ids_s else None, "1/s"),
    }


INTAKE = Workload(
    build=build,
    layers=layers,
    run_pass=run_pass,
    summarize=summarize,
    reference="python",
)
