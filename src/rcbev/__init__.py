"""Deterministic inference kernels for radar BEV feature extraction and
radar/camera BEV fusion, with built-in oracle verification."""

import os as _os

# Product kernels avoid BLAS entirely; this pins the one BLAS consumer (the
# dense benchmark comparator) to a single thread for stable, reproducible
# timings. Takes effect only if numpy is not loaded yet and the user has not
# chosen a value.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .backbone import (
    BackboneArch,
    BackboneResult,
    dmsa_head,
    dual_backbone_forward,
    inject,
    extract,
    multi_head_dmsa,
    pairwise_sq_dist,
    point_block,
    transformer_block,
)
from .bev import (
    BevGrid,
    BevSpec,
    ScatterConfig,
    bev_encode,
    gaussian_bev_map,
    load_grid,
    rcs_bev_feature,
    rcs_scatter,
    save_grid,
    scatter_radius,
    to_pixel,
)
from .config import PipelineConfig, load_config, model_tensors
from .fusion import cross_align, channel_spatial_fuse, deform_attn
from .ingest import (
    PointCloud,
    PointFeatureSet,
    RadarPoint,
    SceneConfig,
    SweepTransform,
    accumulate_sweeps,
    assemble_features,
    filter_roi,
    load_point_cloud,
    normalize_rcs,
    save_point_cloud,
    synth_scene,
)
from .pipeline import FusionOutput, RunReport, gen_camera_bev, run_pipeline
from .selfcheck import run_selfcheck
from .weights import WeightSet, init_weights, load_weights, save_weights

__version__ = "0.1.0"
