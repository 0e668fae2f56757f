"""Golden digests: seeded sweeps and episodes stay bit-identical.

`tests/data/golden_episodes.txt` holds the sha256 of a small drain-mode
`greenlight sweep` CSV and of the stats and wait logs of seeded steady
episodes. Any change to the dynamics, the controllers or the draw order
that alters one episode changes a digest. To regenerate the file after a
deliberate behaviour change, run

    PYTHONPATH=src python tests/test_golden_episodes.py > tests/data/golden_episodes.txt
"""

import hashlib
from pathlib import Path

from greenlight import IntersectionSpec, PolicyKind, SimConfig, SimMode, run_episode
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


def sweep_digest(tmp_dir: Path) -> str:
    out = tmp_dir / "sweep.csv"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def steady_digest() -> str:
    spec = IntersectionSpec.standard()
    h = hashlib.sha256()
    for policy in STEADY_POLICIES:
        for intensity in STEADY_INTENSITIES:
            for seed in STEADY_SEEDS:
                cfg = SimConfig(
                    spec=spec,
                    intensity=intensity,
                    seed=seed,
                    mode=SimMode.STEADY,
                    episode_ticks=STEADY_TICKS,
                )
                stats, log = run_episode(cfg, policy)
                h.update(f"{policy.value} {intensity} {seed}\n{stats!r}\n".encode())
                h.update(format_wait_log(log).encode())
    return h.hexdigest()


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


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sweep = sweep_digest(Path(tmp))
    print(f"sweep_csv_sha256: {sweep}")
    print(f"steady_episodes_sha256: {steady_digest()}")
