"""The text and binary readers on malformed input.

Every reader of a file the user hands in (config, calibration, metrics
and breakdown CSVs, roster, IDX) and the wire-block parser must reject
bad input with a package error, which the CLI turns into exit code 2 or
3, and never with a raw Python exception.
"""

import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gradpipe.compression import deserialize_block
from gradpipe.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    load_idx_dataset,
    load_idx_images,
    load_idx_labels,
)
from gradpipe.errors import ConfigError, GradPipeError
from gradpipe.harness import (
    BREAKDOWN_HEADER,
    METRICS_HEADER,
    config_from_mapping,
    parse_breakdown_csv,
    parse_calibration,
    parse_kv_text,
    parse_metrics_csv,
)
from gradpipe.transport import parse_roster

FUZZ = settings(max_examples=200, deadline=None)
TMP_FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def raises_only_package_errors(fn, *args):
    try:
        fn(*args)
    except GradPipeError:
        pass


def kv_lines(keys):
    """`key = value` text over the given keys, with arbitrary values."""
    line = st.tuples(st.sampled_from(keys), st.text(max_size=12)).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    )
    return st.lists(st.one_of(line, st.text(max_size=20)), max_size=8).map("\n".join)


def csv_text(header, width):
    cell = st.one_of(
        st.text(max_size=6), st.integers().map(str), st.floats().map(str)
    )
    row = st.lists(cell, min_size=0, max_size=width + 1).map(",".join)
    return st.lists(row, max_size=4).map(lambda rows: "\n".join([header, *rows]))


CONFIG_KEYS = [
    "mode", "workers", "codec", "depth", "hidden", "learning_rate", "clock",
    "dataset", "transport", "inject_alpha_ms", "iterations", "seed",
]
CALIBRATION_KEYS = [
    "workers", "alpha_s", "byte_time_s", "reduce_time_s", "sync_time_s",
    "model_bytes", "segments", "l_up", "l_for", "l_back", "l_b",
]


@FUZZ
@given(text=st.one_of(st.text(), kv_lines(CONFIG_KEYS)))
@example(text="workers = four")
@example(text="hidden = 5,x")
def test_config_text_fuzz(text):
    raises_only_package_errors(lambda: config_from_mapping(parse_kv_text(text)))


@FUZZ
@given(text=st.one_of(st.text(), kv_lines(CALIBRATION_KEYS)))
@example(text="workers = 2\nalpha_s = x\nbyte_time_s = 0\nl_back = 0")
def test_calibration_text_fuzz(text):
    raises_only_package_errors(lambda: parse_calibration(parse_kv_text(text)))


@FUZZ
@given(text=st.one_of(st.text(), csv_text(METRICS_HEADER, 4)))
@example(text=METRICS_HEADER + "\n1,2.0")
def test_metrics_csv_fuzz(text):
    raises_only_package_errors(parse_metrics_csv, text)


@FUZZ
@given(text=st.one_of(st.text(), csv_text(BREAKDOWN_HEADER, 11)))
@example(text=BREAKDOWN_HEADER + "\nd_sync,x,10,1,none,0,0,0,0,1,0.5")
def test_breakdown_csv_fuzz(text):
    raises_only_package_errors(parse_breakdown_csv, text)


@FUZZ
@given(text=st.text())
@example(text="h:\u00b2")
@example(text="h:99999")
def test_roster_fuzz(text):
    raises_only_package_errors(parse_roster, text)


def idx_bytes(magic):
    """The given magic followed by arbitrary (often truncated) bytes."""
    return st.binary(max_size=40).map(lambda tail: struct.pack(">I", magic) + tail)


@TMP_FUZZ
@given(
    images=st.one_of(st.binary(max_size=40), idx_bytes(IDX_IMAGES_MAGIC)),
    labels=st.one_of(st.binary(max_size=40), idx_bytes(IDX_LABELS_MAGIC)),
)
@example(images=struct.pack(">I", IDX_IMAGES_MAGIC) + b"\x00\x00", labels=b"")
@example(
    images=struct.pack(">IIII", IDX_IMAGES_MAGIC, 0, 1, 1),
    labels=struct.pack(">II", IDX_LABELS_MAGIC, 0),
)
def test_idx_fuzz(tmp_path, images, labels):
    img_path, lab_path = tmp_path / "images.idx", tmp_path / "labels.idx"
    img_path.write_bytes(images)
    lab_path.write_bytes(labels)
    raises_only_package_errors(load_idx_images, img_path)
    raises_only_package_errors(load_idx_labels, lab_path)
    raises_only_package_errors(load_idx_dataset, img_path, lab_path)


@FUZZ
@given(buf=st.binary(max_size=64))
def test_deserialize_block_fuzz(buf):
    raises_only_package_errors(deserialize_block, buf)


class TestRoster:
    def test_accepts_host_port_lines(self):
        text = "# ranks\n127.0.0.1:5000\n\nnode-b:65535  # last\n"
        assert parse_roster(text) == [("127.0.0.1", 5000), ("node-b", 65535)]

    @pytest.mark.parametrize("line", ["h:99999", "h:0", "h:\u00b2", "h:", "h"])
    def test_rejects_bad_port(self, line):
        with pytest.raises(ConfigError, match="roster line 1"):
            parse_roster(line)
