"""Structured fuzz for the storage boundary: the TLV decoder and WAL records.

``test_property_durability`` damages *bytes* of a valid image, which the
frame checksum catches almost always; nothing there reaches the decoder with
input that is well framed and wrong.  Here the input is structured on purpose:

* **tag soup** -- buffers assembled from the codec's own tags, varints and
  payload fragments, and valid encodings mutated the way PR 19's wire fuzz
  mutates envelopes (flip / cut / splice / a run of container openers past
  the interpreter's recursion limit): every decoder *decodes or raises only*
  :class:`CodecError`;
* **round trip** -- ``decode(encode(v)) == v``, type for type, over the
  closed set of values the codec carries;
* **differential** -- the codec against the recursive one it replaced
  (``storage_codec_reference``): byte-identical encodings, depth cap
  included; on tag soup equal values or ``CodecError`` on both sides; and an
  account record's span digests are :func:`slot_digest` of its slots;
* **CRC-valid garbage** -- a WAL whose frames pass their checksum and hold
  records that are ill-shaped (a field missing, a field of the wrong type,
  no record at all): ``recover_into`` raises only :class:`RecoveryError` /
  :class:`CorruptWal`, or recovers to a root an honest run committed, and a
  refusal installs nothing.
"""

import math
import os
import re
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chain.state import AccountState
from repro.chain.transaction import Transaction
from repro.storage import CorruptWal, DurableStore, RecoveryError, WriteAheadLog, state_root
from repro.storage.codec import (
    MAX_VALUE_DEPTH,
    CodecError,
    decode_account,
    decode_account_digests,
    decode_transaction,
    decode_value,
    encode_account,
    encode_transaction,
    encode_value,
    slot_digest,
)

import storage_codec_reference as reference  # the recursive codec, as the oracle
from test_property_durability import _node, _pristine_image  # the real three-block WAL image

# --- the closed value set -----------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.binary(max_size=40),
    st.text(max_size=12),
    st.floats(allow_nan=False),
)
keys = st.one_of(scalars, st.tuples(scalars, scalars))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=12,
)


def _typed(value):
    """``value`` with every node's exact type spelled out: ``True == 1`` and
    ``1.0 == 1`` must not pass for a round trip."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(item) for item in value])
    if isinstance(value, dict):
        return ("dict", sorted((repr(_typed(k)), _typed(v)) for k, v in value.items()))
    if isinstance(value, float):
        return ("float", repr(value))
    return (type(value).__name__, value)


def _depth(value) -> int:
    if isinstance(value, dict):
        return 1 + max((max(_depth(k), _depth(v)) for k, v in value.items()), default=0)
    if isinstance(value, (list, tuple)):
        return 1 + max(map(_depth, value), default=0)
    return 0


@pytest.mark.slow  # hypothesis-heavy: the CI slow lane
@given(value=values, wrap=st.integers(0, 2 * MAX_VALUE_DEPTH))
@settings(max_examples=300, deadline=None)
def test_decode_of_encode_is_the_identity_over_the_closed_value_set(value, wrap):
    """... up to the depth cap, and past it the *encoder* refuses: nothing is
    ever written that the decoder would not read back."""
    for _ in range(wrap):
        value = [value]
    if _depth(value) > MAX_VALUE_DEPTH:
        with pytest.raises(CodecError, match="nested too deep"):
            encode_value(value)
    else:
        assert _typed(decode_value(encode_value(value))) == _typed(value)


def test_the_depth_cap_is_the_same_on_the_way_out_and_on_the_way_back():
    nested = 7
    for _ in range(MAX_VALUE_DEPTH):
        nested = [nested]
    assert decode_value(encode_value(nested)) == nested
    with pytest.raises(CodecError, match="nested too deep"):
        encode_value((nested,))
    for opener in (b"\x07\x01", b"\x08\x01", b"\x09\x01\x00"):  # tuple, list, {None: ...
        with pytest.raises(CodecError, match="nested too deep"):
            decode_value(opener * (MAX_VALUE_DEPTH + 1) + b"\x00")
        with pytest.raises(CodecError, match="nested too deep"):
            decode_value(opener * 5000)


# --- tag soup -----------------------------------------------------------------------

_OPENERS = (b"\x07\x01", b"\x08\x01", b"\x09\x01\x00", b"\x09\x01")


def _transaction(**overrides) -> dict:
    fields = {
        "s": bytes(range(20)), "t": bytes(range(20, 40)), "n": 3, "m": "submit", "a": (5,),
        "k": {"token": b"\x02" * 86}, "v": 0, "g": 300_000, "p": 1, "x": b"",
    }
    fields.update(overrides)
    return fields


def _account(**overrides) -> dict:
    fields = {"b": 10**21, "n": 4, "c": True, "z": 512, "s": {"smacs/ts_address": b"\x07" * 20}}
    fields.update(overrides)
    return fields


_SEEDS = [
    encode_value(_transaction()),
    encode_value(_account()),
    encode_value({"kind": "block", "number": 1, "delta": [{"a": b"\x01" * 20, "x": True}],
                  "txs": [], "ok": [], "root": b"\x00" * 32, "timestamp": 7, "gas_used": 0}),
    encode_value([None, True, -5, 2.5, "text", b"bytes", (1, [2, {3: 4}])]),
]

fragments = st.one_of(
    st.sampled_from([bytes([tag]) for tag in range(0x0C)]),  # every tag, two unknown
    st.integers(0, 2**70).map(lambda n: encode_value(n)[1:]),  # a bare varint
    st.binary(max_size=6),
    st.sampled_from(_SEEDS),
    values.map(encode_value),
)
soup = st.lists(fragments, max_size=8).map(b"".join)

mutations = st.lists(
    st.tuples(
        st.sampled_from(["flip", "truncate", "insert", "delete", "nest"]),
        st.floats(min_value=0, max_value=1),
        st.binary(min_size=1, max_size=8),
        st.integers(min_value=1, max_value=5000),  # past the interpreter's recursion limit
    ),
    max_size=3,
)


def _mutate(raw: bytes, steps) -> bytes:
    for kind, where, junk, count in steps:
        at = int(where * len(raw))
        if kind == "flip" and raw:
            at = min(at, len(raw) - 1)
            raw = raw[:at] + bytes([raw[at] ^ junk[0] or 1]) + raw[at + 1:]
        elif kind == "truncate":
            raw = raw[:at]
        elif kind == "insert":
            raw = raw[:at] + junk + raw[at:]
        elif kind == "delete":
            raw = raw[:at] + raw[at + len(junk):]
        elif kind == "nest":
            raw = raw[:at] + _OPENERS[junk[0] % len(_OPENERS)] * count + raw[at:]
    return raw


def _no_nan(value) -> bool:
    if isinstance(value, float):
        return not math.isnan(value)
    if isinstance(value, dict):
        return all(_no_nan(k) and _no_nan(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(_no_nan(item) for item in value)
    return True


@pytest.mark.slow  # hypothesis-heavy: the CI slow lane
@given(raw=soup, steps=mutations)
@example(raw=b"", steps=[("nest", 0.0, b"\x01", 5000)])              # list openers
@example(raw=b"", steps=[("nest", 0.0, b"\x02", 5000)])              # dict openers
@example(raw=b"\x09\x01\x08\x00\x00", steps=[])                      # {[]: None}
@example(raw=b"\x09\x01\x09\x00\x00", steps=[])                      # {{}: None}
@example(raw=b"\x05\x02\xff\xfe", steps=[])                          # str that is not UTF-8
@settings(max_examples=400, deadline=None)
def test_tag_soup_decodes_or_raises_only_codec_error(raw, steps):
    raw = _mutate(raw, steps)
    # Anything but CodecError escaping any decoder fails the test.
    try:
        value = decode_value(raw)
    except CodecError:
        value = None
    else:
        # Accepted (canonical or not): what it decoded to is a value of the
        # closed set, so it encodes, and the canonical bytes carry it back.
        if _no_nan(value):
            assert _typed(decode_value(encode_value(value))) == _typed(value)
    try:
        tx = decode_transaction(raw)
    except CodecError:
        pass
    else:
        assert isinstance(tx, Transaction) and isinstance(value, dict)
        encode_transaction(tx)  # what was accepted can be written back
    try:
        account = decode_account(raw)
    except CodecError:
        pass
    else:
        assert isinstance(account, AccountState) and isinstance(value, dict)
        encode_account(account)


@pytest.mark.parametrize(
    "record",
    [
        {k: v for k, v in _transaction().items() if k != "g"},   # a field missing: KeyError
        _transaction(x=b"\x01\x02"),                             # a 2-byte signature: SignatureError
        _transaction(a=7),                                       # arguments not iterable: TypeError
        _transaction(x=b"\x00" * 65),                            # r = 0: SignatureError
        _transaction(n="3"),
        _transaction(n=True),
        _transaction(s=None),
        _transaction(k={5: 1}),
        _transaction(k=[("token", b"")]),
    ],
)
def test_an_ill_shaped_transaction_record_is_a_codec_error(record):
    with pytest.raises(CodecError):
        decode_transaction(encode_value(record))


@pytest.mark.parametrize(
    "record",
    [
        [1, 2],                                                  # a list: TypeError
        {"b": 1},                                                # a short dict: KeyError
        _account(s=[("slot", 1)]),
        _account(c=1),
        _account(b=None),
        "account",
    ],
)
def test_an_ill_shaped_account_record_is_a_codec_error(record):
    with pytest.raises(CodecError):
        decode_account(encode_value(record))


# --- the production codec against the recursive reference ----------------------------


@pytest.mark.slow  # hypothesis-heavy: the CI slow lane
@given(value=values, wrap=st.integers(0, 2 * MAX_VALUE_DEPTH))
@example(  # the encoder's tables and in-place scalars at their edges
    value=[(-1, 0, 63, 64, 1023, 1024, -(2**70), "", "é" * 70, b"\x00" * 200, [None, 1.5])],
    wrap=0,
)
@example(value={(-1, "a"): {1024: -1}, "é" * 64: (True, False)}, wrap=0)
@settings(max_examples=300, deadline=None)
def test_encodings_are_byte_identical_to_the_reference(value, wrap):
    for _ in range(wrap):
        value = [value] if wrap % 2 else (value,)
    try:
        expected = reference.encode_value(value)
    except CodecError as exc:
        with pytest.raises(CodecError, match=re.escape(str(exc))):
            encode_value(value)
    else:
        assert encode_value(value) == expected


@pytest.mark.slow  # hypothesis-heavy: the CI slow lane
@given(raw=soup, steps=mutations)
@example(raw=b"", steps=[("nest", 0.0, b"\x01", 5000)])
@example(raw=b"\x09\x02\x08\x00\x00\x05\x02\xff\xfe\x00", steps=[])  # [] key, then bad UTF-8
@example(raw=b"\x03\x80\x00", steps=[])                             # a padded varint
@settings(max_examples=400, deadline=None)
def test_tag_soup_decodes_to_what_the_reference_decodes(raw, steps):
    """Equal values, or both sides refuse with ``CodecError`` -- which
    refusal first may differ, no other exception type may escape."""
    raw = _mutate(raw, steps)
    try:
        expected = reference.decode_value(raw)
    except CodecError:
        with pytest.raises(CodecError):
            decode_value(raw)
    else:
        assert _typed(decode_value(raw)) == _typed(expected)


@pytest.mark.slow  # hypothesis-heavy: the CI slow lane
@given(storage=st.dictionaries(keys, values, max_size=8), balance=st.integers(0, 2**80))
@settings(max_examples=200, deadline=None)
def test_span_digests_of_a_canonical_account_record_are_its_slot_digests(storage, balance):
    record = AccountState(balance=balance, nonce=3, is_contract=True, code_size=9, storage=storage)
    decoded, digests = decode_account_digests(encode_account(record))
    assert _typed(decoded.storage) == _typed(storage)
    assert digests == {slot: slot_digest(slot, value) for slot, value in decoded.storage.items()}


def test_an_account_record_out_of_key_order_decodes_but_yields_no_digests():
    storage = {("record", n): (b"\x11" * 20, n, "memo") for n in range(3)}
    raw = encode_account(AccountState(balance=5, storage=storage))
    entries = sorted(encode_value(slot) + encode_value(value) for slot, value in storage.items())
    canonical = b"".join(entries)
    assert raw.count(canonical) == 1
    shuffled = raw.replace(canonical, b"".join(entries[::-1]))
    assert decode_account(shuffled) == decode_account(raw)
    assert decode_account_digests(raw)[1] is not None
    assert decode_account_digests(shuffled)[1] is None


def test_well_shaped_records_still_round_trip():
    tx = decode_transaction(encode_value(_transaction()))
    assert decode_transaction(encode_transaction(tx)) == tx
    account = decode_account(encode_value(_account()))
    assert decode_account(encode_account(account)) == account
    with pytest.raises(CodecError, match="not bytes"):
        decode_value("a str is not a buffer")


# --- a WAL of CRC-valid, ill-shaped records -----------------------------------------


def _frames() -> list:
    """The pristine image's records, decoded: base, then admissions and blocks."""
    workdir = tempfile.mkdtemp(prefix="smacs-fuzz-wal-")
    try:
        with open(os.path.join(workdir, "wal.log"), "wb") as handle:
            handle.write(_pristine_image()["bytes"])
        wal = WriteAheadLog(os.path.join(workdir, "wal.log"))
        payloads, _ = wal.replay()
        wal.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return [decode_value(payload) for payload in payloads]


def _recover_records(records) -> "tuple[object | None, bool]":
    """Write ``records`` as checksummed frames and recover a fresh node from
    them: ``(report or None when refused, whether anything was installed)``.
    Any exception but the two loud ones propagates and fails the test."""
    workdir = tempfile.mkdtemp(prefix="smacs-fuzz-rec-")
    store = None
    try:
        wal = WriteAheadLog(os.path.join(workdir, "wal.log"))
        for record in records:
            wal.append(record if isinstance(record, bytes) else encode_value(record))
        wal.sync()
        wal.close()
        chain, pipeline, _ = _node()
        before = state_root(chain.state)
        store = DurableStore(workdir, "memory")
        try:
            report = store.recover_into(pipeline)
        except (RecoveryError, CorruptWal):
            report = None
        installed = state_root(chain.state) != before or store._recovered or len(pipeline.mempool)
        return report, bool(installed)
    finally:
        if store is not None:
            store.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _block_index(frames) -> int:
    return next(i for i, record in enumerate(frames) if record.get("kind") == "block")


@pytest.mark.parametrize("field", ["number", "delta", "txs", "root", "ok", "timestamp", "gas_used"])
def test_a_block_record_missing_a_field_is_a_recovery_error(field):
    frames = _frames()
    at = _block_index(frames)
    frames[at] = {k: v for k, v in frames[at].items() if k != field}
    assert _recover_records(frames) == (None, False)


@pytest.mark.parametrize(
    "field, garbage",
    [
        ("delta", 5), ("delta", [5]), ("delta", [{"x": False}]), ("delta", [{"a": [1], "x": True}]),
        ("txs", 9), ("txs", [b"\x09\x00"]), ("txs", ["text"]), ("ok", 3),
    ],
)
def test_a_block_record_with_a_mistyped_field_is_a_recovery_error(field, garbage):
    frames = _frames()
    at = _block_index(frames)
    frames[at] = {**frames[at], field: garbage}
    assert _recover_records(frames) == (None, False)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda base: {k: v for k, v in base.items() if k != "accounts"},
        lambda base: {k: v for k, v in base.items() if k != "root"},
        lambda base: {k: v for k, v in base.items() if k != "height"},
        lambda base: {**base, "accounts": [1, 2]},
        lambda base: {**base, "accounts": {b"\x01" * 20: b"\x08\x00"}},
        lambda base: {**base, "accounts": {7: encode_value(_account())}},
        lambda base: {**base, "height": "0"},
    ],
)
def test_an_ill_shaped_base_record_is_a_recovery_error(mutate):
    frames = _frames()
    assert frames[0]["kind"] == "base"
    assert _recover_records([mutate(frames[0])] + frames[1:]) == (None, False)
    assert _recover_records([mutate(frames[0])]) == (None, False)


def test_ill_shaped_admission_and_alien_records_are_recovery_errors():
    frames = _frames()
    for alien in (
        {"kind": "tx"},                                   # no transaction in it
        {"kind": "tx", "tx": 5},
        {"kind": "tx", "tx": encode_value([1, 2])},
        {"kind": "tx", "tx": encode_value(_transaction(x=b"\x01"))},
        {"number": 1},                                    # no kind
        [1, 2, 3],
        "record",
        b"\x08" * 5000,                                   # a frame of list openers
        b"",                                              # an empty frame
    ):
        assert _recover_records(frames + [alien]) == (None, False), alien
        assert _recover_records(frames[:1] + [alien] + frames[1:]) == (None, False), alien


garbage_records = st.one_of(
    values,
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["base", "block", "tx", "meta", 5, None])},
        optional={
            name: values
            for name in (
                "accounts", "root", "height", "commitment", "number", "delta", "txs", "ok",
                "timestamp", "gas_used", "tx",
            )
        },
    ),
)


@pytest.mark.slow  # hypothesis-heavy: the CI slow lane
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_a_wal_of_crc_valid_structured_garbage_is_refused_or_a_committed_prefix(data):
    image = _pristine_image()
    frames = _frames()
    kind = data.draw(st.sampled_from(["field", "drop-field", "splice", "replace", "all-garbage"]))
    if kind == "all-garbage":
        frames = data.draw(st.lists(garbage_records, max_size=4))
    else:
        at = data.draw(st.integers(0, len(frames) - 1))
        if kind == "splice":
            frames.insert(at, data.draw(garbage_records))
        elif kind == "replace":
            frames[at] = data.draw(garbage_records)
        else:
            name = data.draw(st.sampled_from(sorted(frames[at])))
            record = dict(frames[at])
            if kind == "field":
                record[name] = data.draw(values)
            else:
                del record[name]
            frames[at] = record
    report, installed = _recover_records(frames)
    if report is None:
        assert not installed
    else:
        # Accepted: then it is a state an honest run committed (a mutated
        # report-only field, such as a timestamp, changes no state).
        assert report.state_root in image["roots"]
