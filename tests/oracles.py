"""Brute-force reference implementations (explicit loops, no shared code
with the package kernels). Slow by design; use tiny shapes."""

import numpy as np


def conv2d_ref(x, w, b=None, stride=1, padding=1, groups=1):
    n, c, h, ww = x.shape
    out_c, cg, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (ww + 2 * padding - kw) // stride + 1
    og = out_c // groups
    out = np.zeros((n, out_c, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oc in range(out_c):
            g = oc // og
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cg):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < ww:
                                    acc += float(x[ni, g * cg + ic, iy, ix]) * float(
                                        w[oc, ic, ky, kx]
                                    )
                    if b is not None:
                        acc += float(b[oc])
                    out[ni, oc, oy, ox] = acc
    return out


def im2col_ref(x, kh, kw, stride, padding):
    """Columns (C*kh*kw, N*oH*oW): row (c, i, j), column (n, oy, ox) holds
    x[n, c, oy*stride + i - padding, ox*stride + j - padding], 0 outside."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = np.zeros((c * kh * kw, n * oh * ow), dtype=x.dtype)
    for ci in range(c):
        for ky in range(kh):
            for kx in range(kw):
                row = (ci * kh + ky) * kw + kx
                for ni in range(n):
                    for oy in range(oh):
                        for ox in range(ow):
                            iy = oy * stride + ky - padding
                            ix = ox * stride + kx - padding
                            if 0 <= iy < h and 0 <= ix < w:
                                cols[row, (ni * oh + oy) * ow + ox] = x[ni, ci, iy, ix]
    return cols


def strip_pool_ref(x, mode):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h, 1), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for hi in range(h):
                row = [float(x[ni, ci, hi, wi]) for wi in range(w)]
                out[ni, ci, hi, 0] = (sum(row) / w) if mode == "avg" else max(row)
    return out


def global_avg_pool_ref(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for hi in range(h):
                row = 0.0
                for wi in range(w):
                    row += float(x[ni, ci, hi, wi])
                acc += row
            out[ni, ci, 0, 0] = acc / (h * w)
    return out


def max_pool_ref(x, kernel, stride, padding):
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    out = np.full((n, c, oh, ow), -np.inf, dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best = -np.inf
                    for ky in range(kernel):
                        for kx in range(kernel):
                            iy = oy * stride + ky - padding
                            ix = ox * stride + kx - padding
                            if 0 <= iy < h and 0 <= ix < w:
                                best = max(best, float(x[ni, ci, iy, ix]))
                    out[ni, ci, oy, ox] = best
    return out


def max_pool_grad_ref(x, g, kernel, stride, padding):
    """Each window's gradient goes to its first maximum in row-major order."""
    n, c, h, w = x.shape
    _, _, oh, ow = g.shape
    gx = np.zeros((n, c, h, w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    best, at = -np.inf, None
                    for ky in range(kernel):
                        for kx in range(kernel):
                            iy = oy * stride + ky - padding
                            ix = ox * stride + kx - padding
                            if 0 <= iy < h and 0 <= ix < w and float(x[ni, ci, iy, ix]) > best:
                                best, at = float(x[ni, ci, iy, ix]), (iy, ix)
                    gx[ni, ci, at[0], at[1]] += float(g[ni, ci, oy, ox])
    return gx


def _src_weights(n_in, n_out, dst):
    src = (dst + 0.5) * n_in / n_out - 0.5
    src = min(max(src, 0.0), n_in - 1.0)
    lo = int(np.floor(src))
    hi = min(lo + 1, n_in - 1)
    frac = src - lo
    return lo, hi, frac


def bilinear_ref(x, out_h, out_w):
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(out_h):
                y0, y1, fy = _src_weights(h, out_h, oy)
                for ox in range(out_w):
                    x0, x1, fx = _src_weights(w, out_w, ox)
                    top = (1 - fx) * float(x[ni, ci, y0, x0]) + fx * float(x[ni, ci, y0, x1])
                    bot = (1 - fx) * float(x[ni, ci, y1, x0]) + fx * float(x[ni, ci, y1, x1])
                    out[ni, ci, oy, ox] = (1 - fy) * top + fy * bot
    return out


def broadcast_ref(a, b, op):
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.zeros(shape, dtype=np.float64)
    for idx in np.ndindex(shape):
        ai = tuple(
            0 if a.shape[i - (len(shape) - a.ndim)] == 1 else idx[i]
            for i in range(len(shape) - a.ndim, len(shape))
        )
        bi = tuple(
            0 if b.shape[i - (len(shape) - b.ndim)] == 1 else idx[i]
            for i in range(len(shape) - b.ndim, len(shape))
        )
        va, vb = float(a[ai]), float(b[bi])
        out[idx] = va + vb if op == "add" else va * vb
    return out


def softmax_col_ref(values):
    m = max(values)
    exp = [np.exp(v - m) for v in values]
    s = sum(exp)
    return [e / s for e in exp]


def conv1x1_ref(v, w, b=None):
    """v: (C_in,) vector, w: (C_out, C_in, 1, 1)."""
    out = np.zeros(w.shape[0], dtype=np.float64)
    for oc in range(w.shape[0]):
        acc = 0.0
        for ic in range(w.shape[1]):
            acc += float(w[oc, ic, 0, 0]) * float(v[ic])
        if b is not None:
            acc += float(b[oc])
        out[oc] = acc
    return out


def ssam_ref(x, w, b, alpha):
    """Scalar-loop recomputation of the strip-attention pipeline."""
    n, c, h, ww = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for ni in range(n):
        z_avg = np.zeros((c, h))
        z_max = np.zeros((c, h))
        for ci in range(c):
            for hi in range(h):
                row = [float(x[ni, ci, hi, wi]) for wi in range(ww)]
                z_avg[ci, hi] = sum(row) / ww
                z_max[ci, hi] = max(row)
        f1 = np.zeros((c, h))
        f2 = np.zeros((c, h))
        for hi in range(h):
            f1[:, hi] = conv1x1_ref(z_avg[:, hi], w, b)
            f2[:, hi] = conv1x1_ref(z_max[:, hi], w, b)
        att = np.zeros((c, h))
        for ci in range(c):
            att[ci, :] = softmax_col_ref(list(f1[ci, :] * f2[ci, :]))
        scaled = att * f1 + att * f2
        for ci in range(c):
            for hi in range(h):
                for wi in range(ww):
                    out[ni, ci, hi, wi] = alpha * scaled[ci, hi] + (1 - alpha) * float(
                        x[ni, ci, hi, wi]
                    )
    return out


def sigmoid_ref(v):
    return 1.0 / (1.0 + np.exp(-v))


def cam_ref(x, w_squeeze, b_squeeze, w_excite, b_excite):
    """GAP -> 1x1 -> ReLU -> 1x1 -> sigmoid, per sample."""
    n, c, h, w = x.shape
    out = np.zeros((n, w_excite.shape[0], 1, 1), dtype=np.float64)
    for ni in range(n):
        pooled = global_avg_pool_ref(x[ni : ni + 1])[0, :, 0, 0]
        hidden = conv1x1_ref(pooled, w_squeeze, b_squeeze)
        hidden = np.maximum(hidden, 0.0)
        gate = conv1x1_ref(hidden, w_excite, b_excite)
        out[ni, :, 0, 0] = [sigmoid_ref(v) for v in gate]
    return out


def bn_eval_ref(x, gamma, beta, mean, var, eps=1e-5):
    n, c, h, w = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            inv = 1.0 / np.sqrt(float(var[ci]) + eps)
            for hi in range(h):
                for wi in range(w):
                    xhat = (float(x[ni, ci, hi, wi]) - float(mean[ci])) * inv
                    out[ni, ci, hi, wi] = float(gamma[ci]) * xhat + float(beta[ci])
    return out


def gfu_ref(x_deep, x_pyr, weights, eps=1e-5):
    """Composition of the reference primitives along the fusion pipeline.

    weights: dict with pre_w, pre_b, ctx_w, ctx_b, apf_w, apf_bn (gamma,
    beta, mean, var), out_w, out_bn.
    """
    n = x_deep.shape[0]
    oh, ow = x_pyr.shape[2], x_pyr.shape[3]
    up = np.maximum(bilinear_ref(x_deep, oh, ow), 0.0)
    pre = np.zeros((n, weights["pre_w"].shape[0], oh, ow))
    for ni in range(n):
        for oy in range(oh):
            for ox in range(ow):
                pre[ni, :, oy, ox] = conv1x1_ref(up[ni, :, oy, ox], weights["pre_w"], weights["pre_b"])
    pooled = global_avg_pool_ref(pre)
    ctx = np.zeros_like(pooled)
    for ni in range(n):
        ctx[ni, :, 0, 0] = conv1x1_ref(pooled[ni, :, 0, 0], weights["ctx_w"], weights["ctx_b"])
    apf = np.zeros((n, weights["apf_w"].shape[0], oh, ow))
    for ni in range(n):
        for oy in range(oh):
            for ox in range(ow):
                apf[ni, :, oy, ox] = conv1x1_ref(x_pyr[ni, :, oy, ox], weights["apf_w"])
    g, bta, m, v = weights["apf_bn"]
    apf = np.maximum(bn_eval_ref(apf, g, bta, m, v, eps), 0.0)
    fused = apf + ctx  # ctx broadcasts over (H, W)
    out = np.zeros_like(fused)
    for ni in range(n):
        for oy in range(oh):
            for ox in range(ow):
                out[ni, :, oy, ox] = conv1x1_ref(fused[ni, :, oy, ox], weights["out_w"])
    g, bta, m, v = weights["out_bn"]
    return np.maximum(bn_eval_ref(out, g, bta, m, v, eps), 0.0)


def conv_ref_any(x, w, b=None, stride=1, padding=0):
    return conv2d_ref(x, w, b, stride=stride, padding=padding, groups=1)


def conv_bn_relu_ref(x, conv_w, bn, stride=1, padding=0, eps=1e-5):
    gamma, beta, mean, var = bn
    h = conv_ref_any(x, conv_w, None, stride=stride, padding=padding)
    return np.maximum(bn_eval_ref(h, gamma, beta, mean, var, eps), 0.0)


def apf_ref(coarse, low, p, eps=1e-5):
    """Both fusion branches recomputed from reference primitives.

    p: dict of stage weights; bn entries are (gamma, beta, mean, var).
    Returns (x_a, x_b, fused).
    """
    lat = conv_bn_relu_ref(low, p["lateral_w"], p["lateral_bn"], padding=0, eps=eps)
    up = bilinear_ref(coarse, low.shape[2], low.shape[3])
    n, _, oh, ow = up.shape
    proj = np.zeros((n, p["proj_w"].shape[0], oh, ow))
    for ni in range(n):
        for oy in range(oh):
            for ox in range(ow):
                proj[ni, :, oy, ox] = conv1x1_ref(up[ni, :, oy, ox], p["proj_w"], p["proj_b"])
    cat = np.concatenate([proj, lat], axis=1)
    refined = conv_bn_relu_ref(cat, p["frb1_w"], p["frb1_bn"], padding=0, eps=eps)
    refined = conv_bn_relu_ref(refined, p["frb3_w"], p["frb3_bn"], padding=1, eps=eps)
    gate = cam_ref(refined, p["cam_sq_w"], p["cam_sq_b"], p["cam_ex_w"], p["cam_ex_b"])
    crb = conv_bn_relu_ref(lat, p["crb_w"], p["crb_bn"], padding=1, eps=eps)
    x_a = crb * gate  # (N, C, 1, 1) gate broadcasts over the plane
    strip = ssam_ref(refined, p["ssam_w"], p["ssam_b"], p["ssam_alpha"])
    coarse_out = conv_ref_any(proj, p["coarse_w"], p["coarse_b"], padding=1)
    x_b = coarse_out * strip
    return x_a, x_b, x_a + x_b


def ohem_select_ref(logits, labels, threshold, min_kept, ignore_index=255):
    """Exhaustive selection: returns (selected flat indices, loss)."""
    n, k, h, w = logits.shape
    entries = []  # (p_true, flat_index, -log p)
    flat = 0
    for ni in range(n):
        for hi in range(h):
            for wi in range(w):
                lab = int(labels[ni, hi, wi])
                if lab != ignore_index:
                    col = [float(logits[ni, ci, hi, wi]) for ci in range(k)]
                    probs = softmax_col_ref(col)
                    p = probs[lab]
                    entries.append((p, flat, -np.log(p)))
                flat += 1
    if not entries:
        return set(), 0.0
    hard = [e for e in entries if e[0] < threshold]
    if len(hard) >= min_kept:
        chosen = hard
    else:
        chosen = sorted(entries, key=lambda e: (e[0], e[1]))[: min(min_kept, len(entries))]
    indices = {e[1] for e in chosen}
    loss = sum(e[2] for e in chosen) / len(chosen)
    return indices, loss
