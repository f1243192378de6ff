import numpy as np
import pytest

import util
from ensattack import nn, oracle
from ensattack.errors import CapabilityError


def test_soft_query_returns_forward_logits_bitwise():
    m = util.tiny_model(20, 1)
    orc = oracle.LocalOracle(m, mode="soft")
    x = util.rand_image(20)
    resp = orc.query(x)
    assert np.array_equal(resp.logits, nn.forward(m, x))
    assert resp.label == int(np.argmax(resp.logits))


def test_hard_query_hides_logits():
    m = util.tiny_model(21, 2)
    orc = oracle.LocalOracle(m, mode="hard")
    x = util.rand_image(21)
    resp = orc.query(x)
    assert resp.logits is None
    assert resp.label == int(np.argmax(nn.forward(m, x)))


def test_hard_argmax_ties_break_low():
    m = util.const_model(util.TINY_SHAPE, 4, hot=3)
    flat = m.with_params(np.zeros(m.param_count(), np.float32))
    resp = oracle.LocalOracle(flat, "hard").query(util.rand_image(22))
    assert resp.label == 0


def test_mode_validation():
    with pytest.raises(ValueError):
        oracle.LocalOracle(util.tiny_model(0, 0), mode="fuzzy")


def test_count_and_log_advance_per_query():
    m = util.tiny_model(23, 0)
    orc = oracle.LocalOracle(m)
    for k in range(1, 4):
        orc.query(util.rand_image(k))
        assert orc.count == k and len(orc.log) == k
    entries = list(orc.log)
    assert [e.index for e in entries] == [1, 2, 3]
    assert entries[0].digest != entries[1].digest


def test_log_records_goal_success():
    m = util.tiny_model(24, 3)
    orc = oracle.LocalOracle(m)
    x = util.rand_image(24)
    clean_label = orc.query(x).label
    orc.query(x, util.targeted(clean_label))
    orc.query(x, util.untargeted(clean_label))
    flags = [e.success for e in orc.log]
    assert flags == [None, True, False]


def test_fresh_handle_counts_from_zero():
    m = util.tiny_model(28, 1)
    orc = oracle.LocalOracle(m)
    orc.query(util.rand_image(28))
    other = orc.fresh()
    assert other.model is m and other.mode == orc.mode
    assert other.count == 0 and len(other.log) == 0
    x = util.rand_image(29)
    assert np.array_equal(other.query(x).logits, nn.forward(m, x))
    assert other.count == 1 and [e.index for e in other.log] == [1]
    assert orc.count == 1 and len(orc.log) == 1


def test_image_digest_stability():
    x = util.rand_image(25)
    assert oracle.image_digest(x) == oracle.image_digest(x.copy())
    assert len(oracle.image_digest(x)) == 16
    y = x.copy()
    y.flat[0] += np.float32(0.001)
    assert oracle.image_digest(x) != oracle.image_digest(y)
    assert oracle.image_digest(x.astype(np.float64)) == oracle.image_digest(x)


def test_is_success_examples():
    z = np.array([1.0, 3.0, 2.0], np.float32)
    resp = oracle.OracleResponse(int(np.argmax(z)), z)
    assert oracle.is_success(resp.label, util.targeted(1))
    assert not oracle.is_success(resp.label, util.targeted(2))
    assert oracle.is_success(resp.label, util.untargeted(0))
    assert not oracle.is_success(resp.label, util.untargeted(1))
    # argmax ties resolve before the predicate: [1,1] reports label 0
    tie = oracle.OracleResponse(0, np.array([1.0, 1.0], np.float32))
    assert not oracle.is_success(tie.label, util.targeted(1))


def test_pixel_range_enforced():
    orc = oracle.LocalOracle(util.tiny_model(26, 1))
    for value in (1.5, -0.25, np.nan, np.inf):
        bad = util.rand_image(26)
        bad.flat[3] = value
        with pytest.raises(ValueError):
            orc.query(bad)
    assert orc.count == 0 and len(orc.log) == 0


def test_require_soft():
    m = util.tiny_model(27, 0)
    oracle.require_soft(oracle.LocalOracle(m, "soft"))
    with pytest.raises(CapabilityError):
        oracle.require_soft(oracle.LocalOracle(m, "hard"))
    with pytest.raises(CapabilityError):
        oracle.require_soft(object())
