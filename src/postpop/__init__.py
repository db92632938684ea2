"""Multimodal post-popularity regression with hashtag-guided attention."""

from .data import (Dataset, FaceAnnotation, Post, PostMetadata, CorpusError,
                   load_dataset, save_dataset, split_dataset)
from .features import (PCAModel, SentimentLexicon, SocialStats, apply_pca,
                       demographic_vector, fit_pca, sentiment_feature,
                       sentiment_scores, social_vector)
from .hashtag_graph import (HashtagFeature, HashtagGraph, build_cooccurrence_graph,
                            hashtag_feature, node_embeddings, structural_embedding,
                            topic_embedding)
from .model import (BranchSpec, FeatureBundle, FeatureCaches, ModelConfig,
                    PAPER_BRANCH_SPECS, PAPER_HEAD_SIZES, branch_forward,
                    build_caches, extract_features, forward_bundle, head_forward,
                    init_model_params, load_checkpoint, loss_mse, merge,
                    merged_length, model_backward, model_forward, save_checkpoint)
from .numeric import (ParamStore, ShapeError, conv1d_forward, dense_forward,
                      dropout, finite_difference_grad, matmul, relu, softmax)
from .providers import (EmbeddingProvider, hashtag_embedding_matrix,
                        image_region_features, text_token_embeddings, tokenize)
from .training import (AblationReport, Checkpoint, Metrics, TrainConfig,
                       TrainResult, TrainingDivergedError, ablate, adam_step,
                       compute_metrics, correlate_features, evaluate, pearson,
                       spearman, train)

__version__ = "0.1.0"
