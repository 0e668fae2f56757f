"""Golden digests: seeded sweeps and episodes stay bit-identical.

`tests/data/golden_episodes.txt` holds the sha256 of a small drain-mode
`greenlight sweep` CSV, of the stats and wait logs of seeded steady
episodes, and of seeded steady horizon episodes planned over all feasible
phases (`maximal_only=False`, k = 2). Any change to the dynamics, the
controllers, the search or the draw order that alters one episode
changes a digest. To regenerate the file after a deliberate behaviour
change, keep the file's first line (a comment) and replace the rest
with this module's output:

    G=tests/data/golden_episodes.txt
    { head -n 1 $G; PYTHONPATH=src python tests/test_golden_episodes.py; } > $G.new && mv $G.new $G

CI checks that the output equals the file without its comment line.
"""

import hashlib
from pathlib import Path

from greenlight import (
    IntersectionSpec,
    PolicyKind,
    SimConfig,
    SimMode,
    SolverConfig,
    run_episode,
)
from greenlight.cli import main
from greenlight.fileio import format_wait_log

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_episodes.txt"
SWEEP_ARGS = [
    "sweep",
    "--instance",
    str(DATA / "instance_default.json"),
    "--intensity",
    "0.5,1.0",
    "--runs",
    "2",
    "--policy",
    "horizon,f1,f2",
]
STEADY_POLICIES = (PolicyKind.F1, PolicyKind.F2, PolicyKind.HORIZON)
STEADY_INTENSITIES = (0.5, 1.0)
STEADY_SEEDS = (0, 1)
STEADY_TICKS = 300
ALL_FEASIBLE = SolverConfig(horizon=2, maximal_only=False)


def sweep_digest(tmp_dir: Path) -> str:
    out = tmp_dir / "sweep.csv"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def steady_digest(policies=STEADY_POLICIES, solver_cfg: SolverConfig | None = None) -> str:
    spec = IntersectionSpec.standard()
    h = hashlib.sha256()
    for policy in policies:
        for intensity in STEADY_INTENSITIES:
            for seed in STEADY_SEEDS:
                cfg = SimConfig(
                    spec=spec,
                    intensity=intensity,
                    seed=seed,
                    mode=SimMode.STEADY,
                    episode_ticks=STEADY_TICKS,
                )
                stats, log = run_episode(cfg, policy, solver_cfg)
                h.update(f"{policy.value} {intensity} {seed}\n{stats!r}\n".encode())
                h.update(format_wait_log(log).encode())
    return h.hexdigest()


def all_feasible_digest() -> str:
    """Steady horizon episodes planned over every feasible phase.

    The guard fires inside about half of these plans, so the digest
    covers guard-filtered all-feasible lists as well as full ones.
    """
    return steady_digest((PolicyKind.HORIZON,), ALL_FEASIBLE)


def read_golden() -> dict[str, str]:
    lines = GOLDEN.read_text().splitlines()
    pairs = (line.split(":", 1) for line in lines if line and not line.startswith("#"))
    return {key.strip(): value.strip() for key, value in pairs}


def test_sweep_csv_matches_golden(tmp_path, capsys):
    digest = sweep_digest(tmp_path)
    capsys.readouterr()  # the per-cell summary lines
    assert digest == read_golden()["sweep_csv_sha256"]


def test_steady_episodes_match_golden():
    assert steady_digest() == read_golden()["steady_episodes_sha256"]


def test_all_feasible_episodes_match_golden():
    assert all_feasible_digest() == read_golden()["all_feasible_episodes_sha256"]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sweep = sweep_digest(Path(tmp))
    print(f"sweep_csv_sha256: {sweep}")
    print(f"steady_episodes_sha256: {steady_digest()}")
    print(f"all_feasible_episodes_sha256: {all_feasible_digest()}")
