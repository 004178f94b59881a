"""A determinism corpus: short seeded configurations that reach the paths
the built-ins miss, each pinned by a digest of every record it yields.

The seed only picks the configurations; every run is RNG-free.  The
corpus reaches explicit controller and filter lists of several
``(k_alpha, k_beta, dt, tau)`` groups (two of them differing only in
``tau``), ``stagger_rho < 1``, every event kind, events at iterations 0
and 1 in one scenario, a weight the network's mask disables that a later
``restore_weight`` brings back, and divergence in both modes.  Like the
goldens, the pins move only with a deliberate change to the simulation
arithmetic, recorded in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random

from paramodel.config_io import builtin_config_dict, config_from_dict, run_records
from paramodel.errors import DivergenceError
from paramodel.trainer import EVENT_ARGS

from conftest import record_bytes

CORPUS_SEED = 20261018
TRAIN_CONFIGS = 36
LINSOLVE_CONFIGS = 24
MAX_HORIZON = 2000

# the forced cases, by config index; every other config is drawn at random
EVENTS_AT_0_AND_1 = 0  # train: every event kind, at 0 and at 1
LAGGING_RESTORE = 1  # train: a weight masked from the start, restored later
TRAIN_DIVERGES = 2  # train: psi overflows after a few hundred iterations
TWO_GROUPS = 0  # linsolve: explicit lists, two (k_alpha, k_beta, dt, tau) groups
TAU_ONLY_GROUPS = 1  # linsolve: explicit lists, groups that differ only in tau
STEP_DIVERGES = 2  # linsolve: a controller state overflows
OUTPUT_DIVERGES = 3  # linsolve: A x overflows while x stays finite


def gains(rng: random.Random) -> dict:
    return {
        "kp": rng.choice([0.5, 1.0, 2.0]),
        "ki": rng.choice([0.005, 0.01, 0.02]),
        "k_alpha": rng.choice([100.0, 166.5, 250.0]),
        "k_beta": rng.choice([4.0, 40.0, 80.0]),
        "dt": rng.choice([1e-5, 2e-5, 4e-5]),
    }


def tau(rng: random.Random) -> float:
    # no shorter than any dt of gains(): the filter's RK4 step stays stable
    return rng.choice([4e-5, 8e-5])


def event(rng: random.Random, at: int, kind: str, q: int, n: int) -> dict:
    if kind == "set_input":
        return {"at": at, kind: {"index": rng.randrange(n), "value": round(rng.uniform(-1.0, 1.0), 3)}}
    if kind == "set_reference":
        return {"at": at, kind: round(rng.uniform(-0.8, 0.8), 3)}
    return {"at": at, kind: rng.randrange(q)}


def train_config(rng: random.Random, i: int) -> dict:
    doc = builtin_config_dict("fig4")
    s = doc["scenario"]
    horizon = rng.randrange(200, MAX_HORIZON + 1)
    q, n = len(s["network"]["weights"]), len(s["network"]["inputs"])
    s.update(
        horizon=horizon,
        stagger_rho=rng.choice([1.0, 0.9, 0.75, 0.5]),
        tau=tau(rng),
        w_max=rng.choice([1.0, 0.8, 0.5]),
        gains=gains(rng),
        sample={"x": [round(rng.uniform(-1.0, 1.0), 3) for _ in range(n)], "y": round(rng.uniform(-0.8, 0.8), 3)},
    )
    s["network"]["weights"] = [round(rng.uniform(-1.2, 1.2), 3) if rng.random() < 0.3 else 0.0 for _ in range(q)]
    s["network"]["mask"] = [rng.random() > 0.15 for _ in range(q)]
    ats = [rng.choice([0, 1, rng.randrange(horizon + 1)]) for _ in range(rng.randrange(6))]
    events = [event(rng, at, rng.choice(list(EVENT_ARGS)), q, n) for at in ats]
    if i == EVENTS_AT_0_AND_1:
        events = [event(rng, at, kind, q, n) for at in (0, 1) for kind in EVENT_ARGS] + events
    if i == LAGGING_RESTORE:
        j = rng.randrange(q)
        s["network"]["mask"][j] = False
        events.append({"at": horizon // 2, "restore_weight": j})
    if i == TRAIN_DIVERGES:
        s["gains"].update(kp=1e6, k_alpha=1e300)
    s["events"] = sorted(events, key=lambda e: e["at"])  # stable: the listed order
    return doc


def linsolve_config(rng: random.Random, i: int) -> dict:
    explicit = i in (TWO_GROUPS, TAU_ONLY_GROUPS) or (i > OUTPUT_DIVERGES and rng.random() < 0.4)
    n = rng.randrange(2 if explicit else 1, 5)
    problem = {
        "a": [[round(rng.uniform(2.0, 9.0) if r == c else rng.uniform(-1.0, 1.0), 3) for c in range(n)] for r in range(n)],
        "b": [round(rng.uniform(-2.0, 2.0), 3) for _ in range(n)],
        "horizon": rng.randrange(200, MAX_HORIZON + 1),
    }
    if explicit:
        palette, taus = [gains(rng), gains(rng)], [tau(rng), tau(rng)]
        if i == TWO_GROUPS:
            palette[1]["k_alpha"] = palette[0]["k_alpha"] * 2
        if i == TAU_ONLY_GROUPS:
            palette[1], taus = palette[0], [4e-5, 8e-5]
        forced = i in (TWO_GROUPS, TAU_ONLY_GROUPS)
        problem["controllers"] = [palette[j % 2 if forced else rng.randrange(2)] for j in range(n)]
        problem["filters"] = [
            {"tau": taus[j % 2 if forced else rng.randrange(2)], "state": round(rng.uniform(-0.5, 0.5), 3)}
            for j in range(n)
        ]
    else:
        problem.update(gains=gains(rng), stagger_rho=rng.choice([0.5, 0.8, 0.95, 1.0]), tau=tau(rng))
    if i == STEP_DIVERGES:
        problem.update(a=[[4.0, 1.0], [1.0, 3.0]], b=[1.0, 0.5], gains={**gains(rng), "kp": 1e6, "k_alpha": 1e300})
    if i == OUTPUT_DIVERGES:
        problem.update(a=[[1e300]], b=[1e300], gains=gains(rng))
    return {"mode": "linsolve", "problem": problem}


def corpus() -> dict[str, dict]:
    """The configuration documents of the corpus, by name."""
    rng = random.Random(CORPUS_SEED)
    docs = {f"train-{i:02d}": train_config(rng, i) for i in range(TRAIN_CONFIGS)}
    docs.update({f"linsolve-{i:02d}": linsolve_config(rng, i) for i in range(LINSOLVE_CONFIGS)})
    return docs


def outcome(doc: dict) -> str:
    """sha256 of every record the run yields, then how it ended."""
    digest = hashlib.sha256()
    try:
        for rec in run_records(config_from_dict(doc)):
            digest.update(record_bytes(rec))
    except DivergenceError as err:
        return f"{digest.hexdigest()} diverged at {err.iteration}: {err}"
    return digest.hexdigest()


PINNED = {
    "train-00": "7f61bec8276808dcc8bfd54b5289b7dc9f087bcd61bc2e60b5383c73f7d649ad",
    "train-01": "bfcb51c29906dac16b25fbf8016601c2d834c4547c0709d4aa6c6ec53163bce4",
    "train-02": (
        "86a948ffdbadcd4f9a3ca7ccb9fe52c062da62d141ce6af7693c841d089391cb "
        "diverged at 183: weight 0: controller state became non-finite: psi=inf, integral=3.983553766627279e-06, u=inf (iteration 183)"
    ),
    "train-03": "9332687e86c922cc66ad78d18328b50afd51b367b951e7ce0190a5c4ebcf776a",
    "train-04": "0eb41f59c685fad4ff8c52a8782e08f3a57cb9efd1cd1c9b4050973dd593cfaa",
    "train-05": "8199ee01ca2bc0e1b842d67da0cd55448ec209e17394fa44984071279ef86495",
    "train-06": "2e97857a9fd10734e01ee767db73ba2813edb85a1b6b8b935af7368d88ed224b",
    "train-07": "5af1c4ac19d643e6abb0c729484791542a878629b4a4138e14e96ee852dda885",
    "train-08": "2fa6d987020383f4d2dc77cec66364f34f7608dd5377c7aef790bff318aaf920",
    "train-09": "96f4056350145396cbed82cee7ecc30d9097da4fa8e8f3297d3dcf6cc965df1d",
    "train-10": "0a542e69d609b18b191dbe7f1dfe422f595818e636fd1b87df90e77831dba288",
    "train-11": "57ef863834e7425afad65183b180703aefc17e5b1d1266995697feff954ceeed",
    "train-12": "65bfbd540e35bf4b9ed35db49745d0d75c2f44ac31ee88f76e8c78ebe010f886",
    "train-13": "6fcabc66ca6571aeec2bb2641c7130cd8faece0b13a3b7ff4aa95fa5834eed53",
    "train-14": "65709d1be643993793cef343c05cf7b5d7b3a0eba2076f29cddd62a4fc009354",
    "train-15": "e491a570fdff3c0bf8ea965f5d0d25899c963888c3de5e93853d625b8bf8dfd6",
    "train-16": "32280d68e4c07f998f591ef4ce2e8e9bd03a0a5c203560f0f65bd6d32a1ac2f0",
    "train-17": "1317a4abb56ef8417ac10da35b891b07985ec178b8888e97f5e80f56a388f57b",
    "train-18": "018086f3a06af360004a2a9e34e6443659b578aba472c9f1ae6a5ffb731aa46e",
    "train-19": "e7050a50216489257d4fd8a9605800c8792836f214f17915ae8f48eb1a382d9e",
    "train-20": "4b74693febf569d796ac598e9bfe7f7202e6d61fa06fedea5c08856891abbc0a",
    "train-21": "8356021aff63e2c17c110c63ac6e5c11355af5b4307c619ed250d8e33d08d648",
    "train-22": "f591785f4b2e9cce78d48bb2d620a0966fd66b67a610d9274b62c7ce7b2381aa",
    "train-23": "90581e1ebc7313d6299b2dea2a5fd6100073d6ee77417de832ce58a69c910a1e",
    "train-24": "d00789e69bf430fe8f50b4ed03418734f8359a5ec4b643f79c98d3acec629092",
    "train-25": "259d768cd160a1373a91bd956a1276013555da921306ed36f7c2508f8e9c72c8",
    "train-26": "5c9edbf11683b2be0c494234ad43d66e745d29d168d6123235ccf8a7ea646f42",
    "train-27": "8ef6a9a13ae0c84ec28d1f795c2c656d6ea695e06a482ed460459fac175b39d8",
    "train-28": "de54a8f54db7ee3ab5385dda1af4fd1bbfc880a983864a91fd8aba548a2a709b",
    "train-29": "dfc6a6a6c3d17f12c694db923b1e0863ec6a4637ff831682c16e760a9450e771",
    "train-30": "77a2bccd1bde55a4ae038ff20bebfa063acf588aba0edf32aa121d02677f3e0c",
    "train-31": "c3570d163df47ff614eb71050e67ec50aaa66ef865c37db6f371792ac697de9e",
    "train-32": "daaae62402eb770901ffc9dcc6a815b08ee51cd2f53533621b60712c52fa4fa2",
    "train-33": "36a9e52bc2ddce7cb73416cc407cba669aa1e3af485b9321109c530c36fe659d",
    "train-34": "0143a4218ac1a979acfb11a50af1e9424e45183eb6839ffd38bf63df596f280c",
    "train-35": "9ab62a5b111fbcea34dccd4fac4a8c4a361e88ef1ca6b87b6cd1045f7cc834f8",
    "linsolve-00": "7aea02423a09e4676337b17040f1acf3278a08165fdd4876efe8359b0fdfe391",
    "linsolve-01": "7e38e38de98f8c8c727d26f9a70b39818bc28c92197fadd05d4261c4a605daf2",
    "linsolve-02": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 "
        "diverged at 2: unknown 0: controller state became non-finite: psi=1.9491208039397644e+306, integral=-5.075920006013971e+291, u=-inf (iteration 2)"
    ),
    "linsolve-03": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 "
        "diverged at 1: measured output became non-finite: (inf,) (iteration 1)"
    ),
    "linsolve-04": "b2625f34d16cdeeea13b02e95160a2504403121b18e6e1c69711260c0921bd21",
    "linsolve-05": "201a20500f0db917298c722b8cb79414bbcd4d0f0284b77ead9d6cd20b4c5b5e",
    "linsolve-06": "4a3df4554ee411f59614ad235dd1680e28f3ed2091c46d7670007fef403af970",
    "linsolve-07": "3edb9763f71cc01f93356b87720337f5fb65d1f2e202f6e6a04a37dc6a303a5a",
    "linsolve-08": "0ea74ba810f3d10437ecb1727507b5eab33a259a7b0c379479898b834baa3256",
    "linsolve-09": "d1a108e7525b6a2b21f7d6286c777c40dbdd967adb5bd5a83093b451255aa1c7",
    "linsolve-10": "c9d7e7c1b2290cfd5109488b3d86dca8dfae035eacdc3bf4cf2cf1c663342040",
    "linsolve-11": "ec2d67b64af174e86e7e45ea5476d1964e832bd2b6ae1fcff035133d5ba9cbe5",
    "linsolve-12": "a980a0f0144bac433c199bd05e1201f0471b1fbae3909563125f292fb8911b30",
    "linsolve-13": "7b7d6f6958ae0353aa7d43cc7bce96033e34af7683cb587f4a4fcacb842f042b",
    "linsolve-14": "00755ef7e4cbf91d581dd8ce542abdd0dfb8a75ea2dc9349472eecb0fa72ef06",
    "linsolve-15": "9699ecafae968d6d4a20a96afd46d5c52d39d732405824c45568d4878fc20543",
    "linsolve-16": "1b782bf2d849434fe7b5ac1eeb1b6a927866c913404cc3540f554ef4324e701d",
    "linsolve-17": "acd2b164e6f3a995363a2287e72bdc470aa96d6d2b7fbf345f11918c9e86931a",
    "linsolve-18": "81bbcc0c895071829b359cbd3b2b2a94cc94cdb3a7fe515233445e28892122a1",
    "linsolve-19": "c1fce0aba2e68912d0ced316e1b54489f32f52413eee94e65da787c43cb49cb5",
    "linsolve-20": "435fca4d7ed108df2892f9377cf6bc46151ef51d0651a77b5ca2394bd4d9ca7c",
    "linsolve-21": "8744be13aaddd4e0fc0995536d86f4d825fc5b2ea086dfb18c20b5fc7f02c273",
    "linsolve-22": "0f860f59828b1e6e3f51c5cc77974399dfe0d5bf918e66289c701def814f8783",
    "linsolve-23": "e32704bb8622cca56de93e2c051a06b303da0b5d4b0d7fa8bedeee455147085f",
}


def test_corpus_outcomes_are_pinned():
    outcomes = {name: outcome(doc) for name, doc in corpus().items()}
    assert outcomes == PINNED, f"new outcomes: {outcomes}"


def test_corpus_reaches_the_cases_the_builtins_miss():
    docs = corpus()
    scenarios = [d["scenario"] for d in docs.values() if d["mode"] == "train"]
    problems = [d["problem"] for d in docs.values() if d["mode"] == "linsolve"]
    groups = [
        {(c["k_alpha"], c["k_beta"], c["dt"], f["tau"]) for c, f in zip(p["controllers"], p["filters"])}
        for p in problems
        if "controllers" in p
    ]
    assert any(len({g[:3] for g in keys}) > 1 for keys in groups)
    assert any(len({g[:3] for g in keys}) == 1 < len(keys) for keys in groups)  # only tau differs
    assert any(s["stagger_rho"] < 1 for s in scenarios)
    assert any(p.get("stagger_rho", 1) < 1 for p in problems)
    assert {kind for s in scenarios for e in s["events"] for kind in e if kind != "at"} == set(EVENT_ARGS)
    assert any({0, 1} <= {e["at"] for e in s["events"]} for s in scenarios)
    assert any(
        not s["network"]["mask"][e["restore_weight"]] and e["at"] > 1
        for s in scenarios
        for e in s["events"]
        if "restore_weight" in e
    )
    diverged = [name for name, end in PINNED.items() if " diverged at " in end]
    assert {name.split("-")[0] for name in diverged} == {"train", "linsolve"}
