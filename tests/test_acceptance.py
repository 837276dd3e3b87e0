"""Acceptance gate: one test and one printed verdict line per criterion.

Criteria, in test order:

1. zero cost at ground truth on a clean generated scene, under 5 seconds,
   and on rigs far from identity
2. distance fields and out-of-range queries exactly equal brute force
3. single-axis cost sweeps bottom out at zero displacement and rise outward
4. plane-based initialization recovers random exact-correspondence poses
5. the minimizer solves standard reference problems to tight tolerance
6. end-to-end CLI calibration under label noise hits the accuracy band,
   also on rigs drawn uniformly over SO(3)
7. refinement from pipeline output matches refinement from near ground truth
8. every subcommand is byte-for-byte deterministic
"""

import time

import numpy as np
import pytest

from helpers import (
    brute_distance_grid,
    brute_min_l1,
    class_field,
    load_script,
    make_planar_pairs,
    query_distance,
)
from semcal.cli import main
from semcal.costfield import CostEvaluator
from semcal.geometry import (
    CameraIntrinsics,
    Extrinsics,
    RotationAngles,
    Translation,
    wrap_angle,
)
from semcal.io_formats import from_file_units, read_extrinsics, write_scene_dir
from semcal.optimizer import calibrate, powell_minimize
from semcal.pnp_init import initialize
from semcal.scene import LabelImage
from semcal.synth import SceneSpec, generate, perturb


def announce(capsys, n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def test_criterion_1_cost_zero_oracle(capsys):
    gt = Extrinsics(
        RotationAngles(0.03, -0.05, 0.08), Translation(0.2, -0.1, 0.15)
    )
    t0 = time.perf_counter()
    scene = generate(SceneSpec(n_frames=20, objects_per_frame=5, extrinsics=gt, seed=0))
    breakdown = CostEvaluator(scene.pairs, scene.spec.classes).evaluate(gt)
    elapsed = time.perf_counter() - t0
    ok = breakdown.total == 0.0 and elapsed < 5.0
    announce(
        capsys, 1, ok,
        f"cost {breakdown.total!r} at ground truth over 20 frames in {elapsed:.2f}s",
    )


# the bench's scene recipe: its random_rig set draws a rotation uniform over
# SO(3) per seed, as a normalized Gaussian quaternion
accuracy = load_script("bench", "accuracy")


def rig(degrees, meters=accuracy.GT[1]) -> Extrinsics:
    return Extrinsics.from_vector(from_file_units([*degrees, *meters]))


def rotation_angle_deg(a: Extrinsics, b: Extrinsics) -> float:
    """The angle of the rotation that takes ``b``'s rotation to ``a``'s."""
    turn = a.matrix()[0] @ b.matrix()[0].T
    return float(np.degrees(np.arccos(np.clip((np.trace(turn) - 1.0) / 2.0, -1.0, 1.0))))


def test_criterion_1_cost_zero_on_other_rigs(capsys):
    # the KITTI-like rig next to the Euler singularity, an axis-permuted rig
    # and four rotations uniform over SO(3)
    rigs = {"kitti-like": rig(*accuracy.KITTI_NEAR), "axis-permuted": rig((-90.0, 0.0, -90.0)),
            **{f"random {seed}": rig(*accuracy._random_gt(seed)) for seed in range(4)}}
    costs = {}
    for name, gt in rigs.items():
        scene = generate(SceneSpec(n_frames=10, objects_per_frame=5, extrinsics=gt, seed=0))
        costs[name] = CostEvaluator(scene.pairs, scene.spec.classes).evaluate(gt).total
    ok = all(cost == 0.0 for cost in costs.values())
    announce(capsys, 1, ok, f"cost 0.0 at ground truth on {len(rigs)} rigs far from identity"
             if ok else f"costs at ground truth {costs}")


def test_criterion_2_distance_field_exactness(capsys):
    rng = np.random.default_rng(2)
    bad_cells = 0
    bad_queries = 0
    n_queries = 0
    n_grids = 0
    while n_grids < 100 or n_queries < 1000:
        n_grids += 1
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        n_classes = int(rng.integers(1, 5))
        labels = rng.integers(0, n_classes + 1, size=(h, w))
        class_id = int(rng.integers(1, n_classes + 1))
        field = class_field(LabelImage(labels=labels), class_id)
        reference = brute_distance_grid(labels, class_id)
        if field.empty_class:
            if not np.all(np.isinf(reference)):
                bad_cells += 1
            continue
        if not np.array_equal(field.d, reference):
            bad_cells += 1
        for _ in range(12):
            u = int(rng.integers(-50, w + 50))
            v = int(rng.integers(-50, h + 50))
            if 0 <= u < w and 0 <= v < h:
                continue  # only out-of-range queries count here
            n_queries += 1
            got = query_distance(field, (float(u), float(v)))
            if got != brute_min_l1(labels, class_id, [(u, v)])[0]:
                bad_queries += 1
    ok = bad_cells == 0 and bad_queries == 0
    announce(
        capsys, 2, ok,
        f"{n_grids} grids exact, {n_queries} out-of-range queries exact"
        if ok else f"{bad_cells} grids and {bad_queries} queries disagree",
    )


SWEEP_GT = Extrinsics(
    RotationAngles(np.deg2rad(1.0), np.deg2rad(-2.0), np.deg2rad(3.0)),
    Translation(0.2, -0.1, 0.1),
)


@pytest.fixture(scope="module")
def sweep_scene(tmp_path_factory):
    spec = SceneSpec(
        n_frames=10, objects_per_frame=4, points_per_object=100,
        extrinsics=SWEEP_GT, seed=0, depth_range=(2.5, 16.0),
    )
    scene = generate(spec)
    root = tmp_path_factory.mktemp("sweep")
    sd = root / "scene"
    write_scene_dir(sd, scene.pairs, spec.intrinsics, spec.classes, gt=SWEEP_GT)
    return root, sd


def test_criterion_3_sweep_shape(capsys, sweep_scene):
    root, sd = sweep_scene
    axes = [(a, 30.0, 0.01) for a in ("theta_x", "theta_y", "theta_z")]
    axes += [(a, 2.0, 0.005) for a in ("t_x", "t_y", "t_z")]
    failures = []
    for axis, span, interval in axes:
        out = root / f"sw_{axis}"
        rc = main([
            "sweep", str(sd), "--gt", str(sd / "gt_extrinsics.txt"),
            "--axis", axis, "--range", str(span), "--interval", str(interval),
            "--output", str(out),
        ])
        assert rc == 0
        rows = [
            tuple(map(float, line.split(",")))
            for line in (out / f"sweep_{axis}.csv").read_text().splitlines()[1:]
        ]
        disps = np.array([r[0] for r in rows])
        costs = np.array([r[1] for r in rows])
        minimum = costs.min()
        # the global minimum value must be attained within one step of zero
        if not np.any((np.abs(disps) <= interval * (1 + 1e-9)) & (costs == minimum)):
            failures.append(f"{axis}: minimum {minimum:.4g} away from zero")
        half = len(rows) // 2
        for name, side in (("left", costs[:half][::-1]), ("right", costs[half + 1:])):
            means = np.array([b.mean() for b in np.array_split(side, 20)])
            if np.any(np.diff(means) < -1e-9 * np.maximum(means[:-1], 1e-12)):
                failures.append(f"{axis}: {name} bins not non-decreasing")
    announce(
        capsys, 3, not failures,
        "6 axes: minimum at zero, 20-bin sides non-decreasing"
        if not failures else "; ".join(failures),
    )


def test_criterion_4_planar_initialization(capsys):
    worst = 0.0
    for seed in range(50):
        pairs, gt, classes = make_planar_pairs(seed)
        result = initialize(CostEvaluator(pairs, classes))
        err = np.abs(
            np.asarray(result.extrinsics.to_vector()) - np.asarray(gt.to_vector())
        )
        worst = max(worst, float(err.max()))
    ok = worst < 1e-6
    announce(
        capsys, 4, ok,
        f"50 random planar poses recovered, worst parameter error {worst:.2e}",
    )


def test_criterion_5_optimizer_references(capsys):
    rosen = lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)
    x, _, _ = powell_minimize(rosen, np.array([-1.2, 1.0]))
    rosen_err = float(np.max(np.abs(x - 1.0)))

    quad_worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = q @ np.diag(rng.uniform(0.5, 10.0, size=6)) @ q.T
        m = rng.uniform(-2.0, 2.0, size=6)
        f = lambda x: float((x - m) @ a @ (x - m))
        x, _, _ = powell_minimize(f, np.zeros(6))
        quad_worst = max(quad_worst, float(np.max(np.abs(x - m))))
    ok = rosen_err < 1e-6 and quad_worst < 1e-8
    announce(
        capsys, 5, ok,
        f"Rosenbrock error {rosen_err:.2e}, worst of 20 quadratics {quad_worst:.2e}",
    )


CONVERGE_GT = SWEEP_GT


def test_criterion_6_end_to_end_accuracy(capsys, tmp_path):
    t0 = time.perf_counter()
    results = {}
    for n_frames in (10, 20):
        passed = 0
        for seed in range(10):
            spec = SceneSpec(
                n_frames=n_frames, objects_per_frame=4, points_per_object=100,
                extrinsics=CONVERGE_GT, seed=seed, depth_range=(2.5, 16.0),
                noise_rate=0.02,
            )
            scene = generate(spec)
            sd = tmp_path / f"scene_{n_frames}_{seed}"
            write_scene_dir(sd, scene.pairs, spec.intrinsics, spec.classes,
                            gt=CONVERGE_GT)
            out = sd / "out"
            assert main(["calibrate", str(sd), "--output", str(out)]) == 0
            est = read_extrinsics(out / "estimated_extrinsics.txt")
            delta = np.asarray(est.to_vector()) - np.asarray(CONVERGE_GT.to_vector())
            rot_err = float(np.max(np.abs(np.degrees([wrap_angle(d) for d in delta[:3]]))))
            trans_err = float(np.max(np.abs(delta[3:])))
            if rot_err <= 1.0 and trans_err <= 0.1:
                passed += 1
        results[n_frames] = passed
    elapsed = time.perf_counter() - t0
    ok = all(p >= 8 for p in results.values()) and elapsed < 600.0
    announce(
        capsys, 6, ok,
        f"{results[10]}/10 at 10 frames, {results[20]}/10 at 20 frames "
        f"in {elapsed:.0f}s (budget 600s)",
    )


def test_criterion_6_random_rigs(capsys, tmp_path):
    # the first three scenes of the bench's random_rig set, written to disk
    # and calibrated through the CLI; a rotation far from identity is judged
    # by its angle, as Euler angles near a singularity trade off
    errors = []
    for seed in range(3):
        spec = accuracy._spec(accuracy._random_gt(seed), **accuracy.SCENE_DEFAULTS, seed=seed)
        sd = tmp_path / f"scene_{seed}"
        write_scene_dir(sd, generate(spec).pairs, spec.intrinsics, spec.classes,
                        gt=spec.extrinsics)
        assert main(["calibrate", str(sd), "--output", str(sd / "out")]) == 0
        est = read_extrinsics(sd / "out" / "estimated_extrinsics.txt")
        trans = np.abs(np.subtract(est.to_vector()[3:], spec.extrinsics.to_vector()[3:]))
        errors.append((rotation_angle_deg(est, spec.extrinsics), float(trans.max())))
    ok = all(angle <= 1.0 and trans <= 0.1 for angle, trans in errors)
    announce(capsys, 6, ok, "3 random rigs, worst rotation angle "
             f"{max(e[0] for e in errors):.3f} deg, translation {max(e[1] for e in errors):.3f} m")


def test_criterion_7_initialization_suffices(capsys):
    gt = Extrinsics(RotationAngles(0.02, -0.04, 0.1), Translation(0.15, -0.08, 0.05))
    k = CameraIntrinsics(fx=250.0, fy=250.0, cx=160.0, cy=120.0, width=320, height=240)
    worst_gap = 0.0
    costs = []
    for seed in range(5):
        spec = SceneSpec(
            n_frames=20, objects_per_frame=1, extrinsics=gt, seed=seed,
            depth_range=(3.0, 8.0), lateral_range=(-2.0, 2.0), intrinsics=k,
            dilation=2, size_range=(0.5, 1.0),
        )
        scene = generate(spec)
        evaluator = CostEvaluator(scene.pairs, spec.classes)
        from_init = initialize(evaluator).extrinsics
        _, bd_a, _ = calibrate(evaluator, from_init)
        near_gt = perturb(gt, np.deg2rad(0.5), 0.05, seed=seed + 100)
        _, bd_b, _ = calibrate(evaluator, near_gt)
        costs.append((bd_a.total, bd_b.total))
        worst_gap = max(worst_gap, abs(bd_a.total - bd_b.total))
    ok = worst_gap <= 1e-9
    announce(
        capsys, 7, ok,
        f"5 seeds, worst final-cost gap {worst_gap:.2e} "
        f"(both paths at {costs[0][0]!r})",
    )


def test_criterion_8_determinism(capsys, tmp_path):
    spec_file = tmp_path / "spec.txt"
    spec_file.write_text(
        "n_frames = 3\nobjects_per_frame = 3\npoints_per_object = 60\n"
        "theta_x_deg = 1.5\ntheta_y_deg = -2\ntheta_z_deg = 4\n"
        "t_x_m = 0.2\nt_y_m = -0.1\nt_z_m = 0.15\n"
    )

    def run_all(tag):
        base = tmp_path / tag
        scene = base / "scene"
        assert main(["synth", "--spec", str(spec_file), "--output", str(scene)]) == 0
        assert main(["init", str(scene), "--output", str(base / "init")]) == 0
        assert main(["calibrate", str(scene), "--output", str(base / "cal")]) == 0
        assert main([
            "sweep", str(scene), "--gt", str(scene / "gt_extrinsics.txt"),
            "--axis", "theta_x", "--range", "0.5", "--interval", "0.1",
            "--output", str(base / "sweep"),
        ]) == 0
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()
        }

    first = run_all("a")
    second = run_all("b")

    # eval reports echo their input paths, so both runs must share inputs
    est = tmp_path / "a" / "cal" / "estimated_extrinsics.txt"
    gt = tmp_path / "a" / "scene" / "gt_extrinsics.txt"
    for out in ("eval1", "eval2"):
        assert main(["eval", "--estimated", str(est), "--gt", str(gt),
                     "--output", str(tmp_path / out)]) == 0
    first["eval/report.txt"] = (tmp_path / "eval1" / "report.txt").read_bytes()
    second["eval/report.txt"] = (tmp_path / "eval2" / "report.txt").read_bytes()

    same = first == second
    n_files = len(first)
    diffs = [name for name in first if first.get(name) != second.get(name)]
    announce(
        capsys, 8, same,
        f"5 subcommands, {n_files} output files byte-identical"
        if same else f"files differ: {', '.join(diffs[:5])}",
    )
