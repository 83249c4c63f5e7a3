#include "src/fs/vfs.h"

#include <algorithm>
#include <utility>

#include "src/common/log.h"
#include "src/obs/observer.h"

namespace sled {

Result<std::vector<std::string>> Vfs::SplitPath(std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return Err::kInval;
  }
  std::vector<std::string> components;
  size_t i = 1;
  while (i <= path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string_view::npos) {
      j = path.size();
    }
    std::string_view part = path.substr(i, j - i);
    if (part.empty() || part == ".") {
      // skip
    } else if (part == "..") {
      if (!components.empty()) {
        components.pop_back();
      }
    } else {
      components.emplace_back(part);
    }
    i = j + 1;
  }
  return components;
}

std::string Vfs::JoinPath(const std::vector<std::string>& components) {
  std::string normalized = "/";
  for (size_t i = 0; i < components.size(); ++i) {
    normalized += components[i];
    if (i + 1 < components.size()) {
      normalized += '/';
    }
  }
  return normalized;
}

Result<uint32_t> Vfs::Mount(std::string path, std::unique_ptr<FileSystem> fs) {
  SLED_CHECK(fs != nullptr, "Mount of null file system");
  SLED_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  const std::string normalized = JoinPath(components);
  for (const MountEntry& m : mounts_) {
    if (m.path == normalized) {
      return Err::kExist;
    }
  }
  MountEntry entry;
  entry.path = normalized;
  entry.components = std::move(components);
  entry.fs_id = next_fs_id_++;
  entry.fs = std::move(fs);
  if (obs_ != nullptr) {
    entry.fs->AttachObserver(obs_);
  }
  mounts_.push_back(std::move(entry));
  // Longest paths first so prefix matching finds the deepest mount.
  std::sort(mounts_.begin(), mounts_.end(),
            [](const MountEntry& a, const MountEntry& b) { return a.path.size() > b.path.size(); });
  for (const MountEntry& m : mounts_) {
    if (m.path == normalized) {
      return m.fs_id;
    }
  }
  return Err::kIo;  // unreachable
}

const Vfs::MountEntry* Vfs::FindMount(const std::vector<std::string>& components,
                                      size_t* consumed) const {
  for (const MountEntry& m : mounts_) {
    if (m.components.size() <= components.size() &&
        std::equal(m.components.begin(), m.components.end(), components.begin())) {
      *consumed = m.components.size();
      return &m;
    }
  }
  return nullptr;
}

Result<Vfs::Resolved> Vfs::Resolve(std::string_view path) const {
  if (obs_ != nullptr) {
    obs_->VfsResolve();
  }
  SLED_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  size_t consumed = 0;
  const MountEntry* mount = FindMount(components, &consumed);
  if (mount == nullptr) {
    return Err::kNoEnt;
  }
  Resolved r{mount->fs.get(), mount->fs_id, mount->fs->root()};
  for (size_t i = consumed; i < components.size(); ++i) {
    SLED_ASSIGN_OR_RETURN(r.ino, r.fs->Lookup(r.ino, components[i]));
  }
  return r;
}

Result<Vfs::Resolved> Vfs::ResolveParent(std::string_view path, std::string* leaf) const {
  SLED_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  if (components.empty()) {
    return Err::kInval;  // cannot create/unlink the root
  }
  *leaf = components.back();
  components.pop_back();
  size_t consumed = 0;
  const MountEntry* mount = FindMount(components, &consumed);
  if (mount == nullptr) {
    return Err::kNoEnt;
  }
  Resolved r{mount->fs.get(), mount->fs_id, mount->fs->root()};
  for (size_t i = consumed; i < components.size(); ++i) {
    SLED_ASSIGN_OR_RETURN(r.ino, r.fs->Lookup(r.ino, components[i]));
  }
  return r;
}

Result<Vfs::Resolved> Vfs::CreateFile(std::string_view path) {
  std::string leaf;
  SLED_ASSIGN_OR_RETURN(Resolved parent, ResolveParent(path, &leaf));
  SLED_ASSIGN_OR_RETURN(InodeNum ino, parent.fs->CreateFile(parent.ino, leaf));
  return Resolved{parent.fs, parent.fs_id, ino};
}

Result<Vfs::Resolved> Vfs::CreateDir(std::string_view path) {
  std::string leaf;
  SLED_ASSIGN_OR_RETURN(Resolved parent, ResolveParent(path, &leaf));
  SLED_ASSIGN_OR_RETURN(InodeNum ino, parent.fs->CreateDir(parent.ino, leaf));
  return Resolved{parent.fs, parent.fs_id, ino};
}

Result<void> Vfs::Unlink(std::string_view path) {
  std::string leaf;
  SLED_ASSIGN_OR_RETURN(Resolved parent, ResolveParent(path, &leaf));
  return parent.fs->Unlink(parent.ino, leaf);
}

Result<InodeAttr> Vfs::Stat(std::string_view path) const {
  SLED_ASSIGN_OR_RETURN(Resolved r, Resolve(path));
  return r.fs->GetAttr(r.ino);
}

Result<std::vector<DirEntry>> Vfs::List(std::string_view path) const {
  SLED_ASSIGN_OR_RETURN(Resolved r, Resolve(path));
  SLED_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, r.fs->List(r.ino));
  // Mount points that are direct children of this directory appear in the
  // listing (as directories), exactly as on a real system.
  SLED_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  const std::string normalized = JoinPath(components);
  const std::string prefix = normalized == "/" ? "/" : normalized + "/";
  for (const MountEntry& m : mounts_) {
    if (m.path.size() <= prefix.size() || m.path.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string leaf = m.path.substr(prefix.size());
    if (leaf.find('/') != std::string::npos) {
      continue;  // deeper than one component
    }
    const bool already_listed =
        std::any_of(entries.begin(), entries.end(),
                    [&](const DirEntry& e) { return e.name == leaf; });
    if (!already_listed) {
      entries.push_back({leaf, m.fs->root(), true});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const DirEntry& a, const DirEntry& b) { return a.name < b.name; });
  return entries;
}

FileSystem* Vfs::FsById(uint32_t fs_id) const {
  for (const MountEntry& m : mounts_) {
    if (m.fs_id == fs_id) {
      return m.fs.get();
    }
  }
  return nullptr;
}

std::string Vfs::MountPathOf(uint32_t fs_id) const {
  for (const MountEntry& m : mounts_) {
    if (m.fs_id == fs_id) {
      return m.path;
    }
  }
  return "";
}

void Vfs::AttachObserver(Observer* obs) {
  obs_ = obs;
  for (MountEntry& m : mounts_) {
    m.fs->AttachObserver(obs);
  }
}

std::vector<std::pair<std::string, uint32_t>> Vfs::Mounts() const {
  std::vector<std::pair<std::string, uint32_t>> out;
  out.reserve(mounts_.size());
  for (const MountEntry& m : mounts_) {
    out.emplace_back(m.path, m.fs_id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sled
