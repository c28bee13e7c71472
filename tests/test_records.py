"""Golden records: the sha256 of the canonical case records of small
configs of every suite.

The digest covers `emit_report(report)` with `wall_time` set to 0, so it
pins every recorded number to the last bit, the sign of zero included, as
well as every summary, margin and verdict.  Some of these small configs fail
their statistical drift gate; that verdict is part of the pinned bytes too.
A change that moves a record on purpose updates the digest here and says by
how much in CHANGES.md.
"""

import dataclasses
import hashlib

import pytest

from torwave.harness import ExperimentConfig, emit_report, run_suite

# name -> (config, sha256 of the canonical records)
GOLDEN = {
    "reconstruction-haar": (
        dict(suite="reconstruction", resolutions=[32, 256], basis_family="haar",
             basis_order=1, sample_count=6, root_seed=11),
        "5941e7118eac62a18cfe1a8dbca79a417f6653eacbdb57535d425a0b7deb6359"),
    "reconstruction-db8": (
        dict(suite="reconstruction", resolutions=[64, 256], basis_order=8, sample_count=6,
             root_seed=12),
        "f6df56a7c3101d0b33d605490ad81a6e561446f0e66615d431a2c0f75cbc635f"),
    "reconstruction-2d": (
        dict(suite="reconstruction", resolutions=[16, 64], basis_order=2, dim=2,
             sample_count=3, root_seed=13),
        "7d75a662f0a1f85c947efe3e1bffeacc7756e8c278fb85f92cb1b2e7e533b33f"),
    "product_identity": (
        dict(suite="product_identity", resolutions=[128, 256], sample_count=6,
             root_seed=21),
        "de2516d06bb769c569b3d7a06e5d67c9262c8b95cbd516640b1c705f7b72c946"),
    "product_identity-haar-j3": (
        dict(suite="product_identity", resolutions=[64, 128], basis_family="haar",
             basis_order=1, coarse_level=3, sample_count=6, root_seed=23),
        "297900c2316dc88bf8740feb1a79c06e699425e272e8f2e316730f1acf0d7676"),
    "product_identity-2d": (
        dict(suite="product_identity", resolutions=[16, 32], basis_order=2, dim=2,
             sample_count=3, root_seed=22),
        "97e3bb6e25c7da4e0ec2807b859fcd69e8d7a2d5e81fcacd9b3a419caa757ac5"),
    "commutator_identity-hilbert": (
        dict(suite="commutator_identity", resolutions=[128, 256], operator="hilbert",
             sample_count=6, root_seed=31),
        "facc47f1693d6d9d02e364340c05ad5fe981d8992c6ad4932f9b81ce033dfa90"),
    "commutator_identity-ifrac": (
        dict(suite="commutator_identity", resolutions=[128, 256], operator="ifrac:0.5",
             sample_count=6, root_seed=32),
        "c016bbe52b27ea5d18c1b07f2fc197ad0b0aabba1acab81c4c2333f715f946ac"),
    "commutator_identity-riesz1": (
        dict(suite="commutator_identity", resolutions=[32, 64], operator="riesz1", dim=2,
             sample_count=2, root_seed=33),
        "b551c67c86ee3876248b942bb9a1483e153061da3db4fcb1dc3cecb40e158168"),
    "boundedness_sweep": (
        dict(suite="boundedness_sweep", resolutions=[128, 256], sample_count=6,
             root_seed=41),
        "c273bc34409bb59ab0f5474f2b421f687316c3d005ae7af91be81211f7c6b5b5"),
    "boundedness_sweep-2d": (
        dict(suite="boundedness_sweep", resolutions=[16, 32], basis_order=2, dim=2,
             sample_count=2, root_seed=42),
        "5237106532321d17c91b35357f35e3e47ae9b8eba58bf2e5ca11686b8809201f"),
    "almost_diagonal": (
        dict(suite="almost_diagonal", resolutions=[128], sample_count=4, root_seed=51),
        "4e2142f588cd616c7c18c9a24e4e8e134cca4d5291e670f1f4888a151374869a"),
    "sandwich-maximal": (
        dict(suite="sandwich", resolutions=[128], operator="maximal", sample_count=3,
             root_seed=61),
        "baec37d118933f742d78e69e5ebb58fcdbe11bb8b5954d78586c0f3dc12deb19"),
    "sandwich-lusin": (
        dict(suite="sandwich", resolutions=[128], operator="lusin", sample_count=3,
             root_seed=62),
        "91fb2426713e767b8a147cc7746e9334f194f8cf01632c2e45296e3ba2c7bbd5"),
    "sandwich-maximal-2d": (
        dict(suite="sandwich", resolutions=[16, 32], operator="maximal", basis_order=2,
             dim=2, sample_count=2, root_seed=63),
        "b01456b24a694a4b05c3cea0a5e34f1c8abe6640b4ade6674f92955d18b4e3f9"),
    "sandwich-lusin-2d": (
        dict(suite="sandwich", resolutions=[16, 32], operator="lusin", basis_order=2,
             dim=2, sample_count=2, root_seed=64),
        "f4d55e88aa7e9e484f13408be82d13a5d39e160105edab6a8360ba25ba1075c3"),
    "h1b_equivalence": (
        dict(suite="h1b_equivalence", resolutions=[64, 128], sample_count=2, root_seed=71),
        "c42709dcf02bcc34c950fc9d5cafdb11c96a0ca732f43768f2e8d62c98373fb9"),
    "unboundedness_probe": (
        dict(suite="unboundedness_probe", resolutions=[256, 512], sample_count=1,
             root_seed=81),
        "2f033fb0d42e4cd168daca61ea5791a61a87891e2d2db3e3d15d2c09fe7ec4c2"),
    "molecule": (
        dict(suite="molecule", resolutions=[64, 128], sample_count=3, root_seed=91),
        "c7b5dc37a38b2a4334bd9f2f3ec778418ad062ae5cc2157fdff9dfc56c19d2a6"),
    "fractional": (
        dict(suite="fractional", resolutions=[64, 128], sample_count=3, root_seed=101),
        "357909554bcadd168b801bb2ab6e33eb22d9c228805c5f3f9dc2ddeee740ffc6"),
    "fractional-2d": (
        dict(suite="fractional", resolutions=[16, 32], basis_order=2, dim=2,
             sample_count=3, root_seed=102),
        "f54b6038efb3237b3cc177a4312bf7fffdde9695e9f00102c4bf76403e45ed4f"),
}


def record_digest(config: dict) -> str:
    report = run_suite(ExperimentConfig.from_dict(config))
    text = emit_report(dataclasses.replace(report, wall_time=0.0))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_records_are_byte_identical(name):
    config, digest = GOLDEN[name]
    assert record_digest(config) == digest
