"""Seeded inputs for the benchmark workloads.

Each generator turns a seed into a workflow source, a mock handler script
and the final context values a correct run must end with. A seed changes
values and which variables are touched, never the amount of work, so runs
with different seeds are comparable. Nothing here imports wee: the set-up
probe generates its inputs before it starts timing the import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# seq_loop: one cycle over a wide context, written to a trace file
SEQ_VARS = 300
SEQ_ITERATIONS = 300
SEQ_ASSIGNMENTS = 4

# fanout: one parallel block, one branch per quote
FANOUT_BRANCHES = 4

# stop_resume: calls at distinct positions plus several copies of one
# position forked by a cycle, all in flight when the stop arrives
STOP_FETCHES = 3
STOP_SHARED = 4
STOP_SHARED_DELAY_MS = 30
STOP_FETCH_DELAY_MS = (30, 50)


@dataclass(frozen=True)
class Workflow:
    source: str
    script: dict
    expected: dict[str, int]  # final values that hold for every instance
    params: dict = field(default_factory=dict)


def _rng(*parts: object) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def seq_loop(seed: int) -> Workflow:
    rng = _rng("seq_loop", seed)
    initial = [rng.randint(0, 999) for _ in range(SEQ_VARS)]
    touched = rng.sample(range(SEQ_VARS), SEQ_ASSIGNMENTS)
    steps = [rng.randint(1, 9) for _ in touched]
    a, b, c, d = (f"v{i:03d}" for i in touched)
    ka, kb, kc, kd = steps

    lines = [
        "workflow {",
        '  handler "mock"',
        '  endpoint svc: "mock://svc"',
        "  context counter: 0",
        f"  context n: {SEQ_ITERATIONS}",
    ]
    lines += [f"  context v{i:03d}: {value}" for i, value in enumerate(initial)]
    lines += [
        "  cycle (counter < n) {",
        "    manipulate :step {",
        "      counter = counter + 1",
        f"      {a} = {a} + {ka}",
        f"      {b} = {b} + {kb} * 2",
        f"      {c} = {c} - {kc}",
        f"      {d} = ({d} + {kd}) % 1000",
        "    }",
        f"    call :probe, endpoint: svc, parameters: {{ x: {a} + counter  y: {b} * 2  z: counter % 7 }}",
        "  }",
        "}",
    ]
    n = SEQ_ITERATIONS
    expected = {
        "counter": n,
        a: initial[touched[0]] + n * ka,
        b: initial[touched[1]] + n * kb * 2,
        c: initial[touched[2]] - n * kc,
        d: (initial[touched[3]] + n * kd) % 1000,
    }
    return Workflow("\n".join(lines) + "\n", {"default": {"result": {}}}, expected)


def fanout(seed: int) -> Workflow:
    rng = _rng("fanout", seed)
    quotes = [rng.randint(1, 99) for _ in range(FANOUT_BRANCHES)]
    # about half of the instances take each alternative
    threshold = sum(quotes) + FANOUT_BRANCHES * 25

    lines = [
        "workflow {",
        '  handler "mock"',
        '  endpoint svc: "mock://svc"',
        "  context base: 0",
        "  context total: 0",
        "  context hits: 0",
        "  context flag: 0",
    ]
    lines += [f"  context r{k}: 0" for k in range(1, FANOUT_BRANCHES + 1)]
    lines.append("  parallel wait: all {")
    for k in range(1, FANOUT_BRANCHES + 1):
        lines += [
            "    parallel_branch {",
            f"      call :quote_{k}, endpoint: svc, parameters: {{ amount: base + {k} }}",
            "      critical :ledger {",
            f"        manipulate :book_{k} {{ total = total + r{k} + base  hits = hits + 1 }}",
            "      }",
            "    }",
        ]
    lines += [
        "  }",
        "  choose {",
        f"    alternative (total > {threshold}) {{ manipulate :over {{ flag = 1 }} }}",
        "    otherwise { manipulate :under { flag = 2 } }",
        "  }",
        "}",
    ]
    script = {
        "positions": {
            f"quote_{k}": {"result": {f"r{k}": quote}}
            for k, quote in enumerate(quotes, start=1)
        }
    }
    return Workflow(
        "\n".join(lines) + "\n",
        script,
        {"hits": FANOUT_BRANCHES},
        {"quotes": quotes, "threshold": threshold},
    )


def fanout_instance(workflow: Workflow, seed: int, index: int) -> tuple[dict, dict]:
    """(initial context, expected final values) of one fanout instance."""
    base = _rng("fanout", seed, index).randint(0, 50)
    total = sum(workflow.params["quotes"]) + FANOUT_BRANCHES * base
    flag = 1 if total > workflow.params["threshold"] else 2
    return {"base": base}, {**workflow.expected, "total": total, "flag": flag}


def stop_resume(seed: int) -> Workflow:
    rng = _rng("stop_resume", seed)
    values = [rng.randint(1, 999) for _ in range(STOP_FETCHES)]
    lines = [
        "workflow {",
        '  handler "mock"',
        '  endpoint svc: "mock://svc"',
        f"  context amount: {STOP_SHARED}",
        "  context i: 0",
        "  context total: 0",
    ]
    lines += [f"  context a{k}: 0" for k in range(1, STOP_FETCHES + 1)]
    lines.append("  parallel wait: all {")
    for k in range(1, STOP_FETCHES + 1):
        lines.append(
            f"    parallel_branch {{ call :fetch_{k}, endpoint: svc, parameters: {{ key: {k} }} }}"
        )
    lines += [
        "    cycle (i < amount) {",
        "      manipulate :next_instance { i = i + 1 }",
        "      parallel_branch { call :task_instance, endpoint: svc, parameters: { index: i } }",
        "    }",
        "  }",
        "  call :finish, endpoint: svc",
        "  manipulate :close { total = "
        + " + ".join(f"a{k}" for k in range(1, STOP_FETCHES + 1))
        + " }",
        "}",
    ]
    # every interrupted call hands out its position's token; the stored
    # outcome replays on resume without a new invocation
    positions: dict = {
        f"fetch_{k}": {
            "result": {f"a{k}": value},
            "delay_ms": list(STOP_FETCH_DELAY_MS),
            "token": f"tok-fetch_{k}",
        }
        for k, value in enumerate(values, start=1)
    }
    positions["task_instance"] = {
        "result": {},
        "delay_ms": STOP_SHARED_DELAY_MS,
        "token": "tok-task_instance",
    }
    positions["finish"] = {"result": {}}
    passthroughs = {
        f"tok-{position}": {"result": entry["result"]}
        for position, entry in positions.items()
        if "token" in entry
    }
    expected = {"i": STOP_SHARED, "total": sum(values)}
    expected.update({f"a{k}": value for k, value in enumerate(values, start=1)})
    return Workflow(
        "\n".join(lines) + "\n",
        {"positions": positions, "passthroughs": passthroughs},
        expected,
        {"in_flight": STOP_FETCHES + STOP_SHARED},
    )


def handler_seed(seed: int, index: int) -> int:
    """Seed of one instance's mock handler, which draws its scripted delays."""
    return _rng("handler", seed, index).getrandbits(32)


GENERATORS = {"seq_loop": seq_loop, "fanout": fanout, "stop_resume": stop_resume}
