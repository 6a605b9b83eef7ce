"""mvmatch: multi-view dense matching, track extraction and SfM preprocessing.

The package covers the full inference-time pipeline: synthetic scene oracles
for ground truth, clustering-based track-token construction, track-guided
attention feature exchange, coarse-to-fine dense warp refinement with
multi-view fusion, confidence/cycle post-processing into SfM tracks,
covisibility-driven group sampling, and a desk-scale evaluation harness
(DLT/RANSAC homography AUC, multi-view triangulation metrics).
"""

from .kernels import BACKEND
from .grids import (DenseWarpField, FeatureGrid, local_correlation, read_warp_file,
                    upsample_warp, warp_features, write_warp_file)
from .oracle import (PinholeCamera, SceneOracle, gt_track_error,
                     gt_warp, load_scene, make_planar_scene,
                     make_point_cloud_scene, save_scene, simulate_matcher)
from .tracks import (Tracks, VisibilityPartition, allocate_clusters,
                     kmeans, partition_by_visibility, sample_tracks,
                     write_tracks_tsv)
from .attention import (AttentionParams, TrackFeatures, attentional_sampling,
                        attentional_splatting, exchange_features,
                        init_attention_params, masked_softmax,
                        spatial_bias, track_transformer)
from .features import ArrayFeatureProvider, FeatureProvider, OracleFeatureProvider
from .matcher import (AnchorGrid, MatcherParams, RefinerState, global_match,
                      init_matcher_params, mvfuse, refine_level, run_group)
from .postprocess import (ScoreMap, assemble_tracks, build_score_map,
                          nms_select, reciprocity_filter, select_matches)
from .grouping import (ImageGroup, OverlapMatrix,
                       PairUsage, augment_reciprocity, build_group,
                       default_budget, overlap_from_descriptors,
                       overlap_from_matches, sample_groups, source_quotas)
from .geometry import (DegenerateConfigurationError, accuracy_completeness,
                       corner_auc, corner_error, dlt_homography,
                       ransac_homography, triangulate_observations)
from .config import PipelineConfig, load_config, save_config

__version__ = "0.1.0"
