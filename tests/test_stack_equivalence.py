"""The stacked mask code against the per-mask, per-proposal, per-pair
and per-instance loops it replaced, kept here as oracles. Every
comparison is on bytes."""

import json
from collections import deque
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from annoconsist.adjacency import Adjacency, build_adjacency
from annoconsist.condnet import InferenceConfig
from annoconsist.masks import (
    dilate,
    erode,
    inner_boundary,
    rle_decode_stack,
    rle_encode_stack,
    tight_boxes,
)
from annoconsist.scenes import (
    Annotation,
    PoolGeometry,
    SceneRecord,
    scene_from_obj,
    scene_to_obj,
)
from annoconsist.scorer import feature_dim, features
from annoconsist.synthgen import (
    DILATE_PX,
    DILATION,
    DISTRACTOR_COUNT,
    DISTRACTOR_EXTENT,
    DISTRACTOR_MARGIN,
    ERODE_PX,
    MARGIN,
    MIN_AREA,
    P_TARGET,
    SHAPE_FAMILIES,
    SHIFT_PX,
    SPLITS,
    EmptyPoolError,
    ProposalConfig,
    SceneConfig,
    _draw_shape,
    _grow_seed,
    _shift_mask,
    _split_parts,
    gen_proposals,
    make_scene,
)
from annoconsist.train import TrainConfig, prepare_scene, seed_labeling

from conftest import instances, make_record, rect_mask
from oracles import (attach_proposals, box_iou, cut_record, gen_scene_record,
                     prepare_scene_by_copy, rebuild_with_pool, rle_decode,
                     rle_encode, tight_box)

# ---------------------------------------------------------------- oracles


def old_dilate(mask, steps=1):
    out = mask.astype(bool).copy()
    for _ in range(steps):
        m = out.copy()
        m[1:, :] |= out[:-1, :]
        m[:-1, :] |= out[1:, :]
        m[:, 1:] |= out[:, :-1]
        m[:, :-1] |= out[:, 1:]
        m[1:, 1:] |= out[:-1, :-1]
        m[1:, :-1] |= out[:-1, 1:]
        m[:-1, 1:] |= out[1:, :-1]
        m[:-1, :-1] |= out[1:, 1:]
        out = m
    return out


def old_erode(mask, steps=1):
    m = mask.astype(bool)
    if steps == 0:
        return m
    padded = np.pad(m, steps, constant_values=False)
    out = ~old_dilate(~padded, steps)
    return out[steps:-steps, steps:-steps]


def old_inner_boundary(mask):
    m = mask.astype(bool)
    return m & ~old_erode(m, 1)


def old_rle_encode(mask):
    h, w = mask.shape
    flat = np.asarray(mask, dtype=bool).ravel()
    if flat.size == 0:
        return {"counts": [0], "size": [h, w]}
    changes = np.nonzero(np.diff(flat))[0] + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    counts = np.diff(bounds).tolist()
    if flat[0]:
        counts = [0] + counts
    return {"counts": counts, "size": [h, w]}


def old_rle_decode(rle):
    h, w = rle["size"]
    flat = np.zeros(h * w, dtype=bool)
    pos = 0
    val = False
    for run in rle["counts"]:
        if val:
            flat[pos:pos + run] = True
        pos += run
        val = not val
    if pos != h * w:
        raise ValueError(f"rle length {pos} does not match size {h}x{w}")
    return flat.reshape(h, w)


def old_tight_box(mask):
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        raise ValueError("tight_box: empty mask")
    return [int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())]


def old_build_adjacency(pool, edges, dilation=1):
    """The graph as directed edge arrays, and the per-node neighbor and
    weight lists the pair loop built next to them."""
    p = pool.shape[0]
    dil = [old_dilate(pool[u], dilation) for u in range(p)]
    neighbors = [[] for _ in range(p)]
    weights = [[] for _ in range(p)]
    eu, ev, ew = [], [], []
    for u in range(p):
        for v in range(u + 1, p):
            band_uv = dil[u] & pool[v]
            band_vu = dil[v] & pool[u]
            if not (band_uv.any() or band_vu.any()):
                continue
            w = float(edges[band_uv | band_vu].sum())
            neighbors[u].append(v)
            weights[u].append(w)
            neighbors[v].append(u)
            weights[v].append(w)
            eu.extend((u, v))
            ev.extend((v, u))
            ew.extend((w, w))
    return (Adjacency(edge_u=np.array(eu, dtype=np.int64),
                      edge_v=np.array(ev, dtype=np.int64),
                      edge_w=np.array(ew, dtype=np.float64)),
            {"neighbors": neighbors, "weights": weights})


def old_edge_arrays(neighbors, weights):
    eu, ev, ew = [], [], []
    for u, (ns, ws) in enumerate(zip(neighbors, weights)):
        for v, wt in zip(ns, ws):
            if u < v:
                eu.extend((u, v))
                ev.extend((v, u))
                ew.extend((wt, wt))
    return (np.array(eu, dtype=np.int64), np.array(ev, dtype=np.int64),
            np.array(ew, dtype=np.float64))


def per_instance(inst):
    """An instance set as the per-instance (class_id, mask) list that
    records held before the stacks."""
    return list(zip(inst.class_ids.tolist(), inst.masks))


def old_features(rec):
    p = rec.num_proposals
    d = feature_dim(rec.num_classes)
    out = np.zeros((p, d), dtype=np.float64)
    hw = rec.height * rec.width
    seeds_by_class = {}
    for class_id, mask in per_instance(rec.seeds):
        seeds_by_class.setdefault(class_id, []).append(mask)
    for i in range(p):
        m = rec.pool[i]
        ys, xs = np.nonzero(m)
        area = ys.size
        out[i, 0] = area / hw
        out[i, 1] = xs.mean() / rec.width
        out[i, 2] = ys.mean() / rec.height
        out[i, 3:6] = rec.image[m].mean(axis=0)
        ring = old_inner_boundary(m)
        out[i, 6] = rec.edges[ring].mean() if ring.any() else 0.0
        for j, seed_masks in seeds_by_class.items():
            best = max(np.count_nonzero(m & s) / area for s in seed_masks)
            out[i, 7 + j - 1] = best
        out[i, d - 1] = 1.0
    return out


def old_seed_labeling(rec):
    labels = np.zeros(rec.num_proposals, dtype=np.int64)
    ring_edge = features(rec)[:, 6]
    for class_id, mask in per_instance(rec.seeds):
        seed_area = float(np.count_nonzero(mask))
        if seed_area == 0.0:
            continue
        best_score, best_u = 0.0, -1
        for u in range(rec.num_proposals):
            cover = np.count_nonzero(mask & rec.pool[u]) / seed_area
            score = cover * (0.05 + ring_edge[u])
            if score > best_score:
                best_score, best_u = score, u
        if best_u >= 0:
            labels[best_u] = class_id
    return labels


def old_gen_proposals(rec, cfg, seed):
    """gen_proposals' pool from per-instance lists, per-mask morphology
    and OR-loop unions; raises EmptyPoolError as it does."""
    rng = np.random.default_rng(
        np.random.SeedSequence((seed, rec.scene_id, 0xB0B)))
    gt, seeds = per_instance(rec.gt), per_instance(rec.seeds)
    candidates = []
    for (_, mask), (_, own_seed) in zip(gt, seeds):
        if cfg.include_gt:
            candidates.append(mask)
        core = old_erode(mask, ERODE_PX)
        if core.any():
            candidates.append(core)
            touch = own_seed & core
            sy, sx = np.nonzero(touch if touch.any() else core)
            pivot = (sy.mean(), sx.mean())
            for _ in range(SPLITS):
                candidates.extend(
                    _split_parts(core, pivot, rng.uniform(0.0, np.pi)))
        candidates.append(old_dilate(mask, DILATE_PX))
        dy = int(rng.integers(-SHIFT_PX, SHIFT_PX + 1))
        dx = int(rng.integers(-SHIFT_PX, SHIFT_PX + 1))
        candidates.append(_shift_mask(mask, dy, dx))
    gt_union = np.zeros((rec.height, rec.width), dtype=bool)
    for _, mask in gt:
        gt_union |= mask
    placed = 0
    for _ in range(DISTRACTOR_COUNT * 20):
        if placed >= DISTRACTOR_COUNT:
            break
        blob = old_draw_shape(rng, (rec.height, rec.width), DISTRACTOR_EXTENT,
                              DISTRACTOR_MARGIN)
        if np.count_nonzero(blob & gt_union) / np.count_nonzero(blob) <= 0.25:
            candidates.append(blob)
            placed += 1
    kept, seen = [], set()
    for m in candidates:
        if np.count_nonzero(m) >= MIN_AREA and m.tobytes() not in seen:
            seen.add(m.tobytes())
            kept.append(m)
    seed_union = np.zeros((rec.height, rec.width), dtype=bool)
    for _, mask in seeds:
        seed_union |= mask
    kept = [m for m in kept if (m & seed_union).any()]
    kept = kept[:P_TARGET]
    if not kept:
        raise EmptyPoolError("no proposals survived")
    return np.stack(kept)


def old_grow_seed(mask, fraction):
    ys, xs = np.nonzero(mask)
    target = max(1, int(round(fraction * ys.size)))
    cy, cx = ys.mean(), xs.mean()
    start = int(np.argmin((ys - cy) ** 2 + (xs - cx) ** 2))
    seed = np.zeros_like(mask)
    seen = np.zeros_like(mask)
    queue = deque([(int(ys[start]), int(xs[start]))])
    seen[ys[start], xs[start]] = True
    count = 0
    h, w = mask.shape
    while queue and count < target:
        y, x = queue.popleft()
        seed[y, x] = True
        count += 1
        for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            ny, nx = y + dy, x + dx
            if (0 <= ny < h and 0 <= nx < w and mask[ny, nx]
                    and not seen[ny, nx]):
                seen[ny, nx] = True
                queue.append((ny, nx))
    return seed


def old_draw_shape(rng, frame, extent, margin):
    h, w = frame
    family = SHAPE_FAMILIES[rng.integers(len(SHAPE_FAMILIES))]
    ext_y = int(rng.integers(extent[0], extent[1] + 1))
    ext_x = int(rng.integers(extent[0], extent[1] + 1))
    cy = int(rng.integers(margin + ext_y // 2, h - margin - ext_y // 2))
    cx = int(rng.integers(margin + ext_x // 2, w - margin - ext_x // 2))
    ys, xs = np.mgrid[0:h, 0:w]
    if family == "rect":
        mask = (np.abs(ys - cy) <= ext_y // 2) & (np.abs(xs - cx) <= ext_x // 2)
    elif family == "ellipse":
        ry = max(ext_y / 2.0, 1.0)
        rx = max(ext_x / 2.0, 1.0)
        mask = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 <= 1.0
    else:
        mask = (np.abs(ys - cy) <= ext_y // 2) & (np.abs(xs - cx) <= ext_x // 2)
        qy = rng.integers(2)
        qx = rng.integers(2)
        cut_y = (ys < cy) if qy else (ys >= cy)
        cut_x = (xs < cx) if qx else (xs >= cx)
        mask = mask & ~(cut_y & cut_x)
    return mask


def old_split_parts(core, pivot, angle):
    h, w = core.shape
    ys, xs = np.mgrid[0:h, 0:w]
    side = (xs - pivot[1]) * np.cos(angle) + (ys - pivot[0]) * np.sin(angle)
    return core & (side >= 0), core & (side < 0)


# ------------------------------------------------------------- strategies


@st.composite
def stacks(draw, max_p=6, min_p=0):
    """A (P, H, W) bool stack of random masks: blobs of any density, some
    touching the frame border, some empty, some full."""
    h = draw(st.integers(1, 12))
    w = draw(st.integers(1, 12))
    p = draw(st.integers(min_p, max_p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "blocks", "full", "empty"]))
    if kind == "random":
        return rng.random((p, h, w)) < rng.random()
    if kind == "full":
        return np.ones((p, h, w), dtype=bool)
    if kind == "empty":
        return np.zeros((p, h, w), dtype=bool)
    out = np.zeros((p, h, w), dtype=bool)
    for m in out:
        y0, x0 = rng.integers(0, h), rng.integers(0, w)
        m[y0:rng.integers(y0, h) + 1, x0:rng.integers(x0, w) + 1] = True
    return out


def nonempty_rows(pool):
    return pool[pool.any(axis=(1, 2))]


def random_record(pool, rng, num_classes=3, n_seeds=2):
    p, h, w = pool.shape
    edges = rng.random((h, w)).astype(np.float32)
    image = rng.random((h, w, 3)).astype(np.float32)
    seeds = instances([(int(rng.integers(1, num_classes + 1)),
                        rng.random((h, w)) < 0.4) for _ in range(n_seeds)],
                      (h, w))
    return make_record(list(pool), [1], num_classes=num_classes,
                       size=(h, w), edges=edges, image=image, seeds=seeds)


def assert_same_graph(got, want):
    for name in ("edge_u", "edge_v", "edge_w"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def serialized_graph(pool, adjacency):
    """The adjacency entry scene_to_obj writes for a pool and its graph."""
    p, h, w = pool.shape
    rec = SceneRecord(
        scene_id=0, width=w, height=h, num_classes=1,
        image=np.zeros((h, w, 3), dtype=np.float32),
        edges=np.zeros((h, w), dtype=np.float32), gt=instances([], (h, w)),
        annotation=Annotation(presence=np.zeros(1, dtype=np.int8)),
        seeds=instances([], (h, w)), pool=pool, adjacency=adjacency)
    return json.dumps(scene_to_obj(rec)["adjacency"])


def generated_records():
    """Generated scenes, their box-regime restrictions as pixel copies and
    their first proposals alone, at the reference frame size."""
    recs = []
    for seed in range(3):
        rec = make_scene(SceneConfig(), ProposalConfig(), seed, seed)
        recs.append(rec)
        recs.append(cut_record(rec, TrainConfig(supervision="box"),
                               InferenceConfig())[0])
        recs.append(rebuild_with_pool(rec, np.array([0])))
    return recs


# ------------------------------------------------------------ morphology


@settings(max_examples=200, deadline=None)
@given(stacks(), st.integers(0, 3))
def test_stacked_morphology_equals_the_per_mask_calls(pool, steps):
    for ours, old in ((lambda m: dilate(m, steps), lambda m: old_dilate(m, steps)),
                      (lambda m: erode(m, steps), lambda m: old_erode(m, steps)),
                      (inner_boundary, old_inner_boundary)):
        got = ours(pool)
        assert got.shape == pool.shape and got.dtype == np.bool_
        want = np.array([old(m) for m in pool], dtype=bool).reshape(pool.shape)
        assert got.tobytes() == want.tobytes()
        # a single mask is the stack with no leading axis; more leading
        # axes work the same
        for i, m in enumerate(pool):
            assert ours(m).tobytes() == want[i].tobytes()
        two = np.stack([pool, pool[::-1]])
        assert ours(two).tobytes() == np.stack([want, want[::-1]]).tobytes()


# ------------------------------------------------------------------- RLE


@settings(max_examples=200, deadline=None)
@given(stacks(min_p=1))
def test_rle_codec_equals_the_per_run_codec(pool):
    encoded = rle_encode_stack(pool)
    assert encoded == [old_rle_encode(m) for m in pool]
    assert [rle_encode(m) for m in pool] == encoded
    assert rle_decode_stack(encoded).tobytes() == pool.tobytes()
    for m, rle in zip(pool, encoded):
        assert rle_decode(rle).tobytes() == old_rle_decode(rle).tobytes()
        assert rle_decode(rle).tobytes() == m.tobytes()


def test_rle_encode_of_an_empty_stack_and_frame():
    assert rle_encode_stack(np.zeros((0, 3, 4), dtype=bool)) == []
    assert rle_encode(np.zeros((0, 3), dtype=bool)) == old_rle_encode(
        np.zeros((0, 3), dtype=bool))


# ------------------------------------------------------------ tight boxes


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_tight_boxes_equal_the_per_mask_boxes(pool):
    pool = nonempty_rows(pool)
    boxes = tight_boxes(pool)
    assert boxes.dtype == np.int64 and boxes.shape == (len(pool), 4)
    assert boxes.tolist() == [old_tight_box(m) for m in pool]
    assert [tight_box(m).tolist() for m in pool] == boxes.tolist()
    if len(pool):
        assert PoolGeometry.from_pool(pool).boxes.tobytes() == boxes.tobytes()


def test_box_regime_cut_equals_the_per_proposal_filter():
    box = TrainConfig(supervision="box")
    recs = generated_records()
    # a pool of only its last proposal, which seldom covers the box
    recs += [rebuild_with_pool(r, np.array([r.num_proposals - 1]))
             for r in recs]
    skipped = 0
    for rec in recs:
        boxes = rec.annotation.boxes
        for t in (0.3, 0.5, 0.9, 1.0):
            ious = [[box_iou(old_tight_box(m), b) for _, *b in boxes.tolist()]
                    for m in rec.pool]
            want = [i for i, row in enumerate(ious) if max(row) >= t]
            coverable = all(max(col) >= t for col in zip(*ious))
            got = prepare_scene(rec, box, InferenceConfig(box_rho=t))
            if not coverable:
                assert got is None
                skipped += 1
                continue
            assert got.pool_index.dtype == np.int64
            assert got.pool_index.tolist() == want
            assert got.geometry().boxes.tobytes() == tight_boxes(
                rec.pool[want]).tobytes()
    assert skipped > 0  # some cut leaves a box uncovered


def _assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_same_prepared(got, want, boxes, inf_cfg):
    """Two prepared scenes agree table for table, bit for bit; the
    covering test is compared on `boxes`."""
    assert (got.scene_id, got.num_classes, got.num_proposals) == (
        want.scene_id, want.num_classes, want.num_proposals)
    if want.pool_index is None:
        assert got.pool_index is None
    else:
        _assert_same_array(got.pool_index, want.pool_index)
    _assert_same_array(got.annotation.presence, want.annotation.presence)
    if want.annotation.boxes is None:
        assert got.annotation.boxes is None
    else:
        _assert_same_array(got.annotation.boxes, want.annotation.boxes)
    for name in ("edge_u", "edge_v", "edge_w"):
        _assert_same_array(getattr(got.adjacency, name),
                           getattr(want.adjacency, name))
    for name in ("seed_labels", "gt_class_ids", "gt_iou", "_features"):
        _assert_same_array(getattr(got, name), getattr(want, name))
    geom, ref = got.geometry(), want.geometry()
    _assert_same_array(geom.boxes, ref.boxes)
    _assert_same_array(geom.ovl, ref.ovl)
    for t in {inf_cfg.overlap_t, 0.0, 0.9}:
        assert geom.keep_masks(t) == ref.keep_masks(t)
    for rho in (0.3, inf_cfg.box_rho, 1.0):
        mask, ids = geom.covering(boxes, rho)
        ref_mask, ref_ids = ref.covering(boxes, rho)
        _assert_same_array(mask, ref_mask)
        assert ids == ref_ids


def _outside_anchor_record():
    """A scene whose seed anchor over the whole pool, a superset whose
    outline follows the edge map, covers no box: the cut pool anchors
    the seed on the boxed proposal instead."""
    boxed = rect_mask(16, 16, 4, 9, 4, 9)
    wide = rect_mask(16, 16, 1, 15, 1, 15)
    edges = inner_boundary(wide).astype(np.float32)
    seeds = instances([(1, rect_mask(16, 16, 5, 7, 5, 7))], (16, 16))
    rec = make_record([wide, boxed], [1], size=(16, 16), edges=edges,
                      seeds=seeds, gt=instances([(1, boxed)], (16, 16)),
                      boxes=[(1, *tight_box(boxed))])
    assert seed_labeling(rec).tolist() == [1, 0]
    return rec


def test_prepared_scene_equals_the_pixel_copy_path():
    # the prepared tables are rows and columns of the whole pool's; each
    # must equal the table computed anew on the cut pool's pixels
    recs = [make_scene(SceneConfig(), ProposalConfig(), seed, seed)
            for seed in range(4)]
    # a pool of only its last proposal, and one without it
    recs += [rebuild_with_pool(r, np.array([r.num_proposals - 1]))
             for r in recs[:2]]
    recs += [rebuild_with_pool(r, np.arange(r.num_proposals - 1))
             for r in recs[:2]]
    recs.append(_outside_anchor_record())
    compared = {"image": 0, "box": 0}
    for rec in recs:
        boxes = rec.annotation.boxes[:, 1:]
        for supervision, t in [("image", 0.5), ("box", 0.3), ("box", 0.5),
                               ("box", 0.9), ("box", 1.0)]:
            tcfg = TrainConfig(supervision=supervision)
            icfg = InferenceConfig(box_rho=t)
            want = prepare_scene_by_copy(rec, tcfg, icfg)
            # a record with warm caches gives the tables of a cold one
            cold = replace(rec, _geom=None, _features=None)
            rec.geometry().keep_masks(0.9)
            features(rec)
            for src in (cold, rec):
                got = prepare_scene(src, tcfg, icfg)
                if want is None:
                    assert got is None
                    continue
                _assert_same_prepared(got, want, boxes, icfg)
                compared[supervision] += 1
    assert compared["image"] > 0 and compared["box"] > 0


# -------------------------------------------------------------- adjacency


@settings(max_examples=150, deadline=None)
@given(stacks(max_p=8), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2]))
def test_build_adjacency_equals_the_pair_loop(pool, seed, dilation):
    edges = np.random.default_rng(seed).random(pool.shape[1:]).astype(
        np.float32)
    assert_same_graph(build_adjacency(pool, edges, dilation),
                      old_build_adjacency(pool, edges, dilation)[0])


def test_build_adjacency_equals_the_pair_loop_on_generated_pools():
    empty = gen_scene_record(SceneConfig(), seed=0, scene_id=0)
    assert empty.num_proposals == 0
    assert_same_graph(empty.adjacency,
                      old_build_adjacency(empty.pool, empty.edges)[0])
    for rec in generated_records():
        for dilation in (0, 1, 2):
            assert_same_graph(
                build_adjacency(rec.pool, rec.edges, dilation),
                old_build_adjacency(rec.pool, rec.edges, dilation)[0])


@settings(max_examples=150, deadline=None)
@given(stacks(max_p=8), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2]))
def test_serialized_graph_equals_the_pair_loop_lists(pool, seed, dilation):
    edges = np.random.default_rng(seed).random(pool.shape[1:]).astype(
        np.float32)
    assert serialized_graph(pool, build_adjacency(pool, edges, dilation)) \
        == json.dumps(old_build_adjacency(pool, edges, dilation)[1])


def test_serialized_graph_equals_the_pair_loop_lists_on_generated_pools():
    # generated_records holds box-regime and single-proposal cuts, whose
    # graphs restrict builds; each must serialize as the pair loop's lists
    # on the cut pool
    dilation = DILATION
    empty = gen_scene_record(SceneConfig(), seed=0, scene_id=0)
    for rec in [empty, *generated_records()]:
        assert json.dumps(scene_to_obj(rec)["adjacency"]) == json.dumps(
            old_build_adjacency(rec.pool, rec.edges, dilation)[1])


def test_loaded_edge_arrays_equal_the_per_edge_loop():
    for rec in generated_records():
        obj = scene_to_obj(rec)
        loaded = scene_from_obj(obj).adjacency
        for got, want in zip((loaded.edge_u, loaded.edge_v, loaded.edge_w),
                             old_edge_arrays(obj["adjacency"]["neighbors"],
                                             obj["adjacency"]["weights"])):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# --------------------------------------------------------------- features


@settings(max_examples=150, deadline=None)
@given(stacks(min_p=1), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_features_equal_the_per_proposal_loop(pool, seed, n_seeds):
    pool = nonempty_rows(pool)
    if not len(pool):
        return
    rec = random_record(pool, np.random.default_rng(seed), n_seeds=n_seeds)
    assert features(rec).tobytes() == old_features(rec).tobytes()


def test_features_equal_the_per_proposal_loop_on_generated_records():
    for rec in generated_records():
        assert features(rec).tobytes() == old_features(rec).tobytes()


def test_loaded_records_give_the_features_of_the_generated_ones():
    for rec in generated_records()[::3]:
        loaded = scene_from_obj(scene_to_obj(rec))
        assert features(loaded).tobytes() == old_features(rec).tobytes()


# ------------------------------------------------------------- generation


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([((2, 14), MARGIN), (DISTRACTOR_EXTENT,
                                             DISTRACTOR_MARGIN)]))
def test_shapes_and_splits_equal_the_mgrid_versions(seed, drawn):
    # objects of any extent the loader accepts, at the object margin, and
    # the distractor blobs
    extent, margin = drawn
    ours, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        mask = _draw_shape(ours, (24, 21), extent, margin)
        want = old_draw_shape(old, (24, 21), extent, margin)
        assert mask.shape == want.shape and mask.tobytes() == want.tobytes()
        if mask.any():
            ys, xs = np.nonzero(mask)
            pivot = (ys.mean(), xs.mean())
            angle = ours.uniform(0.0, np.pi)
            assert angle == old.uniform(0.0, np.pi)
            for a, b in zip(_split_parts(mask, pivot, angle),
                            old_split_parts(mask, pivot, angle)):
                assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(stacks(max_p=1, min_p=1), st.floats(0.0, 1.0))
def test_grow_seed_equals_the_coordinate_walk(pool, fraction):
    mask = pool[0]
    if not mask.any():
        return
    got = _grow_seed(None, mask, fraction)
    assert got.dtype == np.bool_
    assert got.tobytes() == old_grow_seed(mask, fraction).tobytes()


# ---------------------------------------------------------- instance sets


@st.composite
def instance_sets(draw, h, w, max_n=3):
    """An Instances on an (h, w) frame, possibly empty: rectangles of any
    size, some touching the border, and noise blobs, some empty."""
    n = draw(st.integers(0, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(n):
        mask = np.zeros((h, w), dtype=bool)
        if rng.random() < 0.7:
            y0, x0 = rng.integers(0, h), rng.integers(0, w)
            mask[y0:rng.integers(y0, h) + 1, x0:rng.integers(x0, w) + 1] = True
        else:
            mask = rng.random((h, w)) < rng.random()
        pairs.append((int(rng.integers(1, 4)), mask))
    return instances(pairs, (h, w))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_empty_and_drawn_instance_sets_roundtrip(data):
    rec = generated_records()[0]
    h, w = rec.height, rec.width
    rec = replace(rec, gt=data.draw(instance_sets(h, w)),
                  seeds=data.draw(instance_sets(h, w)))
    obj = scene_to_obj(rec)
    assert [g["class_id"] for g in obj["gt"]] == rec.gt.class_ids.tolist()
    loaded = scene_from_obj(obj)
    for a, b in ((rec.gt, loaded.gt), (rec.seeds, loaded.seeds)):
        assert b.class_ids.dtype == np.int64 and b.masks.dtype == np.bool_
        assert b.masks.shape == a.masks.shape
        assert a.class_ids.tobytes() == b.class_ids.tobytes()
        assert a.masks.tobytes() == b.masks.tobytes()
    assert json.dumps(scene_to_obj(loaded)) == json.dumps(obj)


@settings(max_examples=150, deadline=None)
@given(stacks(min_p=1), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_seed_labeling_equals_the_per_seed_loop(pool, seed, n_seeds):
    pool = nonempty_rows(pool)
    if not len(pool):
        return
    rec = random_record(pool, np.random.default_rng(seed), n_seeds=n_seeds)
    assert seed_labeling(rec).tobytes() == old_seed_labeling(rec).tobytes()


def test_seed_labeling_equals_the_per_seed_loop_on_generated_records():
    labeled = 0
    for rec in generated_records():
        if not rec.num_proposals:
            continue
        got = seed_labeling(rec)
        assert got.tobytes() == old_seed_labeling(rec).tobytes()
        labeled += int(got.any())
    assert labeled > 0


def test_seed_labeling_ties_and_zero_scores():
    # two identical proposals tie, so the lower index is labeled; a seed
    # that no proposal touches labels nothing
    block = np.zeros((6, 6), dtype=bool)
    block[1:4, 1:4] = True
    far, corner = np.zeros((2, 6, 6), dtype=bool)
    far[5, 5] = corner[0, 0] = True
    seeds = instances([(2, block), (3, corner)], (6, 6))
    rec = make_record([far, block, block], [2, 3], size=(6, 6), seeds=seeds)
    assert seed_labeling(rec).tolist() == [0, 2, 0]
    assert old_seed_labeling(rec).tolist() == [0, 2, 0]


def _proposal_configs():
    return [ProposalConfig(), ProposalConfig(include_gt=False)]


def _assert_same_pool(rec, cfg, seed):
    try:
        want = old_gen_proposals(rec, cfg, seed)
    except EmptyPoolError:
        try:
            attach_proposals(rec, cfg, seed)
        except EmptyPoolError:
            return 0
        raise AssertionError("the per-instance loops left no proposal")
    got = gen_proposals(rec.gt, rec.seeds, cfg, seed, rec.scene_id)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return 1


def test_gen_proposals_equals_the_per_instance_loops_on_generated_scenes():
    for seed in range(4):
        rec = gen_scene_record(SceneConfig(), seed, seed)
        for cfg in _proposal_configs():
            assert _assert_same_pool(rec, cfg, seed)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 2**16), st.sampled_from(_proposal_configs()))
def test_gen_proposals_equals_the_per_instance_loops(data, seed, cfg):
    # gt and seed sets drawn apart, so either may be empty, and they may
    # differ in length
    rec = gen_scene_record(SceneConfig(height=24, width=20, min_extent=4,
                                       max_extent=12), seed, seed)
    h, w = rec.height, rec.width
    rec = replace(rec, gt=data.draw(instance_sets(h, w)),
                  seeds=data.draw(instance_sets(h, w)))
    _assert_same_pool(rec, cfg, seed)
